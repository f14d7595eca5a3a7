/**
 * @file
 * Distributed directory-based invalidation protocol (the paper cites a
 * Censier–Feautrier-style directory [7]). The directory tracks, per
 * block, the exact sharer set (caches notify evictions, so sharer sets
 * never go stale) and single ownership for modified data. Read misses
 * with no other sharers are granted Exclusive (MESI-style) so private
 * data generates no upgrade traffic — see DESIGN.md.
 *
 * The directory is purely bookkeeping: the Machine applies the returned
 * actions (invalidations, downgrades) to the victim caches and accounts
 * for latency and statistics.
 *
 * Hot-path notes: entries live in a util::FlatMap (open addressing, no
 * per-entry heap nodes), sized up front from a materialized trace's
 * touched-block count via reserveBlocks() and grown on demand in
 * streaming runs; a write transaction returns the victims
 * as a sharer *bit set* (sim::SharerSet, inline up to 128 processors)
 * rather than a heap vector, so the steady-state transaction path
 * never allocates on machines up to 128 processors (see
 * docs/performance.md).
 */

#ifndef TSP_SIM_DIRECTORY_H
#define TSP_SIM_DIRECTORY_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/sharer_set.h"
#include "util/flat_map.h"

namespace tsp::sim {

/**
 * Global block directory.
 */
class Directory
{
  public:
    /** Directory-side block state. */
    enum class State : uint8_t {
        Uncached = 0,  //!< in no cache
        Shared = 1,    //!< clean copies in >= 1 cache
        Owned = 2,     //!< exactly one cache holds it (E or M;
                       //!< M only under MSI)
        SharedOwned = 3, //!< MOESI only: `owner` holds a dirty O copy,
                         //!< other sharers hold clean S copies
    };

    /** Per-block directory entry. */
    struct Entry
    {
        SharerSet sharers;  //!< bit set over processors
        State state = State::Uncached;
        uint32_t owner = 0;       //!< valid when state is Owned or
                                  //!< SharedOwned
        int32_t lastWriter = -1;  //!< last thread to write the block
        int32_t lastToucher = -1; //!< last thread to access the block

        bool isSharer(uint32_t proc) const;
        void addSharer(uint32_t proc);
        void dropSharer(uint32_t proc);
        uint32_t sharerCount() const;
    };

    /** Outcome of a read or write transaction. */
    struct Txn
    {
        /** Block had a directory entry before this transaction. */
        bool blockSeenBefore = false;

        /** lastWriter before the transaction (thread id or -1). */
        int32_t prevLastWriter = -1;

        /** lastToucher before the transaction (thread id or -1). */
        int32_t prevLastToucher = -1;

        /** Read found the block Owned elsewhere: downgrade this proc. */
        bool downgradeOwner = false;
        uint32_t prevOwner = 0;

        /**
         * Processors whose copies a write must invalidate, as a bit
         * set over processors (same layout as Entry::sharers). A bit
         * set instead of a heap vector keeps every write transaction
         * allocation-free up to 128 processors (the SharerSet inline
         * width); iterate with forEachInvalidate().
         */
        SharerSet invalidate;

        /** Whether the block was granted Exclusive (read, no sharers). */
        bool grantedExclusive = false;

        /**
         * Handle on the block's directory entry. Entries are never
         * erased, so the handle stays valid until a transaction grows
         * the table: a rehash moves every entry and changes
         * capacity(). The Machine caches the handle per cache frame to
         * evict without a second hash lookup, and re-resolves all of
         * them whenever capacity() changes (docs/performance.md).
         */
        Entry *entry = nullptr;

        /** True when the write must invalidate at least one copy. */
        bool
        anyInvalidate() const
        {
            return invalidate.any();
        }

        /** Number of copies the write invalidates. */
        uint32_t
        invalidateCount() const
        {
            return invalidate.count();
        }

        /** Visit each victim processor id, in ascending order. */
        template <typename F>
        void
        forEachInvalidate(F &&fn) const
        {
            invalidate.forEach(std::forward<F>(fn));
        }

        /** The victims as an ascending vector (tests/diagnostics). */
        std::vector<uint32_t>
        invalidateList() const
        {
            std::vector<uint32_t> out;
            out.reserve(invalidateCount());
            forEachInvalidate([&](uint32_t p) { out.push_back(p); });
            return out;
        }
    };

    /**
     * Construct for @p processors processors (<= kMaxProcessors)
     * running
     * @p protocol. The protocol decides what a read miss is granted
     * (MSI never grants Exclusive) and whether a read of an Owned
     * block evicts the dirty copy (MOESI keeps it, entering
     * SharedOwned).
     */
    explicit Directory(uint32_t processors,
                       Protocol protocol = Protocol::Mesi);

    /**
     * Pre-size the entry table for @p blocks distinct blocks, so the
     * transaction path never rehashes. The Machine calls this with a
     * materialized trace's touched-block count at construction;
     * streaming runs skip it and the table grows as blocks appear.
     */
    void reserveBlocks(size_t blocks) { entries_.reserve(blocks); }

    /**
     * Entry-table slot count. It changes exactly when a transaction
     * rehashes the table, which moves every entry and so invalidates
     * every Txn::entry handle handed out before.
     */
    size_t capacity() const { return entries_.capacity(); }

    /**
     * Read transaction: processor @p proc (running thread @p tid)
     * fetches @p block. The caller must not already hold the block.
     */
    Txn read(uint32_t proc, uint32_t tid, uint64_t block);

    /**
     * Write transaction: processor @p proc (running thread @p tid)
     * obtains ownership of @p block. Also used for upgrades (when
     * @p proc already holds a Shared copy).
     */
    Txn write(uint32_t proc, uint32_t tid, uint64_t block);

    /**
     * MOESI only: a read found the block Owned but the Machine saw the
     * owner's copy was clean (Exclusive, not Modified), so there is no
     * dirty data to keep supplying — collapse the tentative
     * SharedOwned state read() set back to plain Shared.
     */
    void demoteToShared(Entry *e);

    /** Eviction notification from @p proc for @p block. */
    void evict(uint32_t proc, uint64_t block);

    /**
     * Eviction notification through the Txn::entry handle a previous
     * transaction on the block returned — evict() minus the hash
     * lookup, for the simulator's steady-state miss path.
     */
    void evictEntry(uint32_t proc, Entry *e);

    /** Entry lookup (nullptr when the block was never touched). */
    const Entry *find(uint64_t block) const;

    /** Number of blocks with directory entries. */
    size_t entryCount() const { return entries_.size(); }

    /** Processor count this directory was built for. */
    uint32_t processors() const { return processors_; }

    /** Protocol this directory was built for. */
    Protocol protocol() const { return protocol_; }

    /**
     * Visit every (block, entry) pair, in unspecified order. Used by
     * the paranoid-mode InvariantChecker to cross-check the directory
     * against the caches, and by the Machine to re-resolve its cached
     * entry handles after a rehash (the mutable overload).
     */
    template <typename F>
    void
    forEachEntry(F &&fn) const
    {
        entries_.forEach(std::forward<F>(fn));
    }

    template <typename F>
    void
    forEachEntry(F &&fn)
    {
        entries_.forEach(std::forward<F>(fn));
    }

  private:
    uint32_t processors_;
    Protocol protocol_;
    util::FlatMap<uint64_t, Entry> entries_;
};

} // namespace tsp::sim

#endif // TSP_SIM_DIRECTORY_H

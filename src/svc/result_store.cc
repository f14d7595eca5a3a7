#include "svc/result_store.h"

#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "util/error.h"

namespace tsp::svc {

using experiment::RunJob;
using experiment::RunResult;
namespace codec = experiment::codec;

namespace {

// v2: job keys carry the memory-system variant; RunResult payloads
// carry the shared-L2 counters.
constexpr uint32_t kVersion = 2;

/** Keys are tiny fixed-layout configuration tuples. */
constexpr uint32_t kMaxKeyBytes = 256;

uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : bytes)
        hash = (hash ^ c) * 1099511628211ull;
    return hash;
}

/** Key codec: u64 keyDigest | u32 keyLen | key. */
void
writeKey(codec::ByteWriter &w, const std::string &key)
{
    w.u64(fnv1a(key));
    w.u32(static_cast<uint32_t>(key.size()));
    w.raw(key.data(), key.size());
}

std::string
readKey(codec::ByteReader &r)
{
    uint64_t digest = r.u64();
    uint32_t keyLen = r.u32();
    util::fatalIf(keyLen > kMaxKeyBytes,
                  "result store key unreasonably large");
    std::string key(keyLen, '\0');
    r.raw(key.data(), keyLen);
    // Content-address self-check: a record whose digest does not
    // match its own key bytes is corrupt despite the CRC.
    util::fatalIf(digest != fnv1a(key),
                  "result store record digest mismatch");
    return key;
}

} // namespace

ResultStore::ResultStore(std::string path, uint32_t scale)
    : scale_(scale),
      log_(std::move(path), scale,
           {{'T', 'S', 'P', 'S'}, kVersion, "result store", writeKey,
            readKey, [] { TSP_FAULT_POINT("store.lock"); },
            [] { TSP_FAULT_POINT("store.put"); }, &obs::storeLockWaits()})
{
    TSP_FAULT_POINT("store.load");
    log_.open();
}

std::string
ResultStore::keyBytes(const RunJob &job, uint32_t scale)
{
    codec::ByteWriter key;
    key.u32(scale);
    key.u32(static_cast<uint32_t>(job.app));
    key.u32(static_cast<uint32_t>(job.alg));
    key.u32(job.point.processors);
    key.u32(job.point.contexts);
    key.u8(job.infiniteCache ? 1 : 0);
    key.u8(static_cast<uint8_t>(job.memSystem));
    return key.bytes();
}

uint64_t
ResultStore::digestOf(const RunJob &job, uint32_t scale)
{
    // FNV-1a over the canonical key bytes: stable across runs and
    // processes, which is all a content address needs here.
    return fnv1a(keyBytes(job, scale));
}

std::optional<RunResult>
ResultStore::lookup(const RunJob &job) const
{
    std::optional<RunResult> cached = log_.lookup(keyBytes(job, scale_));
    (cached ? obs::storeHits() : obs::storeMisses()).inc();
    return cached;
}

bool
ResultStore::put(const RunJob &job, const RunResult &result)
{
    if (!log_.put(keyBytes(job, scale_), result))
        return false;
    obs::storePuts().inc();
    return true;
}

} // namespace tsp::svc

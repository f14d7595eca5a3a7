/**
 * @file
 * The benchmark's output-correctness gate. Every run folds each
 * cell's execution time and miss components into one CRC-32, in the
 * workload's canonical cell order (never completion order, so worker
 * scheduling cannot change it), and compares it with the reference
 * digest kept in studybench/reference.txt.
 */

#ifndef STUDYBENCH_DIGEST_H
#define STUDYBENCH_DIGEST_H

#include <array>
#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "experiment/lab.h"
#include "sample/sampler.h"
#include "sim/results.h"

namespace studybench {

/** The result fields of one cell that the gate covers. */
struct CellRecord
{
    std::array<uint64_t, 6> fields{};

    bool operator==(const CellRecord &o) const = default;
};

/** Execution time, the four miss components, invalidations sent. */
CellRecord recordOf(const tsp::sim::SimStats &stats);
CellRecord recordOf(const tsp::experiment::RunResult &result);

/** Execution time, misses, invalidations and references simulated. */
CellRecord recordOf(const tsp::sample::SampleEstimate &estimate);

/** CRC-32 over @p cells, in the given (canonical) order, as hex. */
std::string digestOf(const std::vector<CellRecord> &cells);

/** digestOf() the records of @p results. */
std::string digestOf(const std::vector<tsp::experiment::RunResult> &results);

/** Reference digests: one `<key> <hex>` pair per line, '#' comments. */
class References
{
  public:
    /** Load @p path; a missing file yields an empty table. */
    explicit References(const std::string &path);

    /** Parse reference lines from @p in. */
    explicit References(std::istream &in);

    /**
     * True iff @p key has a reference equal to @p digest. A key with
     * no reference fails the gate: a run is correct only when
     * checked.
     */
    bool matches(const std::string &key,
                 const std::string &digest) const;

    /** The reference of @p key, or "" when none is recorded. */
    std::string expected(const std::string &key) const;

  private:
    std::map<std::string, std::string> table_;
};

} // namespace studybench

#endif // STUDYBENCH_DIGEST_H

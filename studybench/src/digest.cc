#include "digest.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/checksum.h"

namespace studybench {

using tsp::sim::MissKind;

CellRecord
recordOf(const tsp::sim::SimStats &stats)
{
    return {{stats.executionTime(),
             stats.totalMissCount(MissKind::Compulsory),
             stats.totalMissCount(MissKind::IntraConflict),
             stats.totalMissCount(MissKind::InterConflict),
             stats.totalMissCount(MissKind::Invalidation),
             stats.totalInvalidationsSent()}};
}

CellRecord
recordOf(const tsp::experiment::RunResult &result)
{
    CellRecord r = recordOf(result.stats);
    r.fields[0] = result.executionTime;
    return r;
}

CellRecord
recordOf(const tsp::sample::SampleEstimate &estimate)
{
    return {{estimate.execTime, estimate.totalMisses,
             estimate.invalidationsSent, estimate.sampledRefs,
             estimate.fullRefs, estimate.clusters}};
}

std::string
digestOf(const std::vector<CellRecord> &cells)
{
    uint32_t crc = 0;
    for (const CellRecord &c : cells) {
        unsigned char bytes[sizeof(uint64_t) * 6];
        size_t at = 0;
        for (uint64_t f : c.fields)
            for (int b = 0; b < 8; ++b)
                bytes[at++] = static_cast<unsigned char>(f >> (8 * b));
        crc = tsp::util::crc32(bytes, sizeof bytes, crc);
    }
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", crc);
    return hex;
}

std::string
digestOf(const std::vector<tsp::experiment::RunResult> &results)
{
    std::vector<CellRecord> cells;
    for (const tsp::experiment::RunResult &r : results)
        cells.push_back(recordOf(r));
    return digestOf(cells);
}

References::References(const std::string &path)
{
    std::ifstream in(path);
    *this = References(in);
}

References::References(std::istream &in)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        if (fields >> key >> digest)
            table_[key] = digest;
    }
}

bool
References::matches(const std::string &key,
                    const std::string &digest) const
{
    auto it = table_.find(key);
    return it != table_.end() && it->second == digest;
}

std::string
References::expected(const std::string &key) const
{
    auto it = table_.find(key);
    return it == table_.end() ? std::string() : it->second;
}

} // namespace studybench

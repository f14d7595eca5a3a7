#include "experiment/checkpoint.h"

#include "experiment/parallel.h"
#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "obs/metric_defs.h"

namespace tsp::experiment {

namespace {

// v2: job keys carry the memory-system variant; RunResult payloads
// carry the shared-L2 counters.
constexpr uint32_t kVersion = 2;

/** u32 app, alg, processors, contexts; u8 infiniteCache, memSystem. */
constexpr size_t kKeyBytes = 4 * sizeof(uint32_t) + 2;

/** The key bytes are the payload prefix as they are. */
void
writeKey(codec::ByteWriter &w, const std::string &key)
{
    w.raw(key.data(), key.size());
}

std::string
readKey(codec::ByteReader &r)
{
    std::string key(kKeyBytes, '\0');
    r.raw(key.data(), kKeyBytes);
    return key;
}

} // namespace

// ------------------------------------------------------------ Checkpoint

std::string
Checkpoint::keyOf(const RunJob &job)
{
    codec::ByteWriter key;
    key.u32(static_cast<uint32_t>(job.app));
    key.u32(static_cast<uint32_t>(job.alg));
    key.u32(job.point.processors);
    key.u32(job.point.contexts);
    key.u8(job.infiniteCache ? 1 : 0);
    key.u8(static_cast<uint8_t>(job.memSystem));
    return key.bytes();
}

Checkpoint::Checkpoint(std::string path, uint32_t scale)
    : scale_(scale),
      log_(std::move(path), scale,
           {{'T', 'S', 'P', 'C'}, kVersion, "checkpoint journal", writeKey,
            readKey, nullptr,
            [] { TSP_FAULT_POINT("checkpoint.append"); }})
{
    log_.open();
}

void
Checkpoint::record(const RunJob &job, const RunResult &result)
{
    if (log_.put(keyOf(job), result))
        obs::checkpointAppends().inc();
}

} // namespace tsp::experiment

/**
 * @file
 * In-memory span recording for the traced benchmark run. Spans are
 * opened by the benchmark's own code around calls into one layer's
 * public functions (the program itself is not instrumented), kept in
 * memory, and written out once at exit as a Chrome trace-event file.
 *
 * A span's name starts with its layer ("sim.run" belongs to "sim").
 * The named layers are those of the repository's src/ tree that a
 * study passes through; spans of any other prefix ("bench.") are the
 * benchmark's own bookkeeping. A span's self time is its duration
 * minus the time its direct children cover.
 */

#ifndef STUDYBENCH_SPANS_H
#define STUDYBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace studybench {

/** One closed span. Times are nanoseconds since the tracer epoch. */
struct Span
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  //!< 0 = root
    uint32_t tid = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> args;

    double seconds() const { return double(endNs - startNs) * 1e-9; }

    /** Value of arg @p key, or @p fallback. */
    double arg(const std::string &key, double fallback = 0.0) const;
};

/** The layers whose self time the traced run attributes. */
const std::vector<std::string> &namedLayers();

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &spanName);

/** True iff @p spanName belongs to one of namedLayers(). */
bool isNamedLayer(const std::string &spanName);

/**
 * Process-wide span recorder. Disabled by default; while disabled,
 * Scope construction records nothing and reads no clock.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** RAII span: opened at construction, closed at destruction. */
    class Scope
    {
      public:
        explicit Scope(std::string name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Attach a numeric argument (ignored when disabled). */
        void arg(std::string key, double value);

      private:
        bool live_ = false;
        Span span_;
    };

    /** Every closed span so far, in closing order. */
    std::vector<Span> spans() const;


  private:
    Tracer();

    int64_t nowNs() const;
    uint32_t threadId();
    void close(Span &&span);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
};

/** Write @p spans to @p path as a Chrome trace-event JSON array. */
void writeChromeTrace(const std::vector<Span> &spans,
                      const std::string &path);

/** Self seconds of every span of @p spans, index-aligned. */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/**
 * Share of @p phase's wall time during which at least one named-layer
 * span, on any thread, was open. For a serial phase this equals the
 * named layers' summed self time over the phase duration; for the
 * service phases, whose client threads overlap, it counts each
 * instant once.
 */
double layerCoverage(const std::vector<Span> &spans, const Span &phase);

} // namespace studybench

#endif // STUDYBENCH_SPANS_H

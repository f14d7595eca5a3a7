#include "unit_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace studybench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Line format: "times", "count", "metric" and "span" records. */
std::string
serialize(const UnitResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << "times " << r.setupSeconds << ' ' << r.studySeconds << ' '
       << r.studyCpuSeconds << '\n';
    os << "count " << r.report.attempted << ' ' << r.report.failed << ' '
       << (r.report.correct ? 1 : 0) << '\n';
    for (const auto &[name, m] : r.report.metrics)
        os << "metric " << name << ' ' << m.unit << ' ' << m.value << '\n';
    for (const Span &s : r.spans) {
        os << "span " << s.name << ' ' << s.id << ' ' << s.parent << ' '
           << s.tid << ' ' << s.startNs << ' ' << s.endNs << ' '
           << s.args.size();
        for (const auto &[k, v] : s.args)
            os << ' ' << k << ' ' << v;
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

UnitResult
deserialize(const std::string &text)
{
    UnitResult r;
    std::istringstream in(text);
    std::string line;
    bool complete = false;
    while (std::getline(in, line)) {
        std::istringstream f(line);
        std::string kind;
        f >> kind;
        if (kind == "times") {
            f >> r.setupSeconds >> r.studySeconds >> r.studyCpuSeconds;
        } else if (kind == "count") {
            int correct = 0;
            f >> r.report.attempted >> r.report.failed >> correct;
            r.report.correct = correct != 0;
        } else if (kind == "metric") {
            std::string name;
            Metric m;
            f >> name >> m.unit >> m.value;
            r.report.metrics[name] = m;
        } else if (kind == "span") {
            Span s;
            size_t nargs = 0;
            f >> s.name >> s.id >> s.parent >> s.tid >> s.startNs >>
                s.endNs >> nargs;
            for (size_t i = 0; i < nargs; ++i) {
                std::string k;
                double v = 0;
                f >> k >> v;
                s.args.emplace_back(k, v);
            }
            r.spans.push_back(std::move(s));
        } else if (kind == "end") {
            complete = true;
        }
        if (!f && kind != "end")
            throw std::runtime_error("unit process sent a bad line: " +
                                     line);
    }
    if (!complete)
        throw std::runtime_error("unit process sent a truncated result");
    return r;
}

void
writeAll(int fd, const std::string &bytes)
{
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;  // the parent reports the truncation
        done += size_t(n);
    }
}

[[noreturn]] void
childMain(int fd, UnitFn fn, const RunConfig &cfg, int index, bool traced,
          bool setupOnly, Clock::time_point forked)
{
    int rc = 0;
    try {
        Tracer::instance().setEnabled(traced);
        UnitClock clock;
        clock.setupOnly = setupOnly;
        UnitResult r;
        fn(cfg, index, clock, r.report);
        r.setupSeconds = secondsBetween(forked, clock.begin);
        r.studySeconds = clock.studySeconds();
        r.studyCpuSeconds = clock.studyCpuSeconds();
        Tracer::instance().setEnabled(false);
        r.spans = Tracer::instance().spans();
        writeAll(fd, serialize(r));
    } catch (const std::exception &e) {
        std::cerr << "study_bench: unit " << index << " failed: "
                  << e.what() << std::endl;
        rc = 1;
    }
    ::close(fd);
    std::cout.flush();
    std::cerr.flush();
    ::_exit(rc);
}

} // namespace

UnitResult
runUnitProcess(UnitFn fn, const RunConfig &cfg, int index, bool traced,
               bool setupOnly, double timeoutSeconds)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    Clock::time_point forked = Clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error("fork() failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(fds[1], fn, cfg, index, traced, setupOnly, forked);
    }
    ::close(fds[1]);

    std::string text;
    bool timedOut = false;
    char buf[65536];
    for (;;) {
        double left = timeoutSeconds - secondsBetween(forked, Clock::now());
        if (left <= 0) {
            timedOut = true;
            break;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int ready = ::poll(&pfd, 1, int(left * 1000) + 1);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            continue;  // re-check the deadline
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, size_t(n));
    }
    ::close(fds[0]);
    if (timedOut)
        ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (timedOut)
        throw std::runtime_error("unit " + std::to_string(index) +
                                 " ran past its time limit and was killed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("unit " + std::to_string(index) +
                                 " process failed (status " +
                                 std::to_string(status) + ")");
    return deserialize(text);
}

double
peakUnitRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

} // namespace studybench

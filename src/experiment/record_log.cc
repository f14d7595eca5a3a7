#include "experiment/record_log.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/checksum.h"
#include "util/error.h"
#include "util/file_lock.h"
#include "util/logging.h"
#include "util/retry.h"

namespace tsp::experiment {

namespace {

constexpr size_t kHeaderBytes = 4 + 2 * sizeof(uint32_t);
constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);

/** Closes the descriptor on scope exit; -1 = no file. */
struct Fd
{
    int fd;
    ~Fd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // namespace

RecordLog::RecordLog(std::string path, uint32_t scale, Format format)
    : path_(std::move(path)), scale_(scale), format_(std::move(format))
{}

size_t
RecordLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

std::optional<RunResult>
RecordLog::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = results_.find(key);
    if (it == results_.end())
        return std::nullopt;
    return it->second;
}

size_t
RecordLog::replay(std::string_view bytes, bool header)
{
    size_t pos = 0;
    if (header) {
        util::fatalIf(bytes.size() < kHeaderBytes ||
                          std::memcmp(bytes.data(), format_.magic,
                                      sizeof(format_.magic)) != 0,
                      "not a " + format_.kind + ": " + path_);
        uint32_t version = 0, scale = 0;
        std::memcpy(&version, bytes.data() + 4, sizeof(version));
        std::memcpy(&scale, bytes.data() + 8, sizeof(scale));
        util::fatalIf(version != format_.version,
                      util::concat("unsupported ", format_.kind,
                                   " version ", version, " in ", path_));
        util::fatalIf(scale != scale_,
                      util::concat(format_.kind, " ", path_,
                                   " was written at workload scale ",
                                   scale, ", this process runs at "
                                   "scale ", scale_));
        pos = kHeaderBytes;
    }

    while (bytes.size() - pos >= kFrameBytes) {
        uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
        if (len > bytes.size() - pos - kFrameBytes)
            break;  // record truncated mid-payload
        std::string_view payload = bytes.substr(pos + kFrameBytes, len);
        if (util::crc32(payload) != crc)
            break;  // torn or bit-rotted record
        try {
            codec::ByteReader r(payload);
            std::string key = format_.readKey(r);
            RunResult result = codec::readRunResult(r);
            util::fatalIf(!r.done(), "record has trailing bytes");
            // First writer wins: a resident record (our own put or an
            // earlier replay) is canonical — the simulation is
            // deterministic, so an honest duplicate is bit-identical.
            results_.emplace(key, std::move(result));
            // Another process published this key: our pending copy
            // would only duplicate it.
            std::erase_if(pending_,
                          [&](const auto &p) { return p.first == key; });
        } catch (const util::FatalError &) {
            break;  // malformed payload despite a valid CRC frame
        }
        pos += kFrameBytes + len;
    }
    return pos;  // a torn frame header ends the intact prefix too
}

uint64_t
RecordLog::catchUp(int fd)
{
    struct stat st{};
    util::fatalIf(::fstat(fd, &st) != 0, "cannot stat " + path_ + ": " +
                                             std::strerror(errno));
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size < offset_ || uint64_t(st.st_dev) != dev_ ||
        uint64_t(st.st_ino) != ino_)
        offset_ = 0;
    dev_ = st.st_dev;
    ino_ = st.st_ino;

    std::string bytes(size - std::min(offset_, size), '\0');
    for (size_t done = 0; done < bytes.size();) {
        ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                            static_cast<off_t>(offset_ + done));
        if (n < 0 && errno == EINTR)
            continue;
        util::fatalIf(n <= 0, "cannot read " + path_ + ": " +
                                  (n < 0 ? std::strerror(errno)
                                         : "file shrank mid-read"));
        done += static_cast<size_t>(n);
    }
    if (!bytes.empty())
        offset_ += replay(bytes, offset_ == 0);
    return size;
}

void
RecordLog::open()
{
    // Shared: many loaders may replay together, but none overlaps a
    // writer's exclusive publish cycle.
    util::FileLock flock(lockPath(), util::FileLock::Mode::Shared);
    if (flock.waited() && format_.lockWaits)
        format_.lockWaits->inc();
    Fd file{::open(path_.c_str(), O_RDONLY | O_CLOEXEC)};
    if (file.fd < 0)
        return;  // no file yet: start fresh
    dropped_ = catchUp(file.fd) - offset_;
    if (dropped_ > 0) {
        util::warn(util::concat(
            format_.kind, " ", path_, ": dropping ", dropped_,
            " trailing bytes (truncated or corrupt record, likely a "
            "killed writer); every intact record before them recovered"));
    }
}

bool
RecordLog::put(const std::string &key, const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!results_.emplace(key, result).second)
        return false;

    // Resident before the append is attempted: if it fails past its
    // retry budget the result is still served, and stays pending.
    codec::ByteWriter payload;
    format_.writeKey(payload, key);
    codec::writeRunResult(payload, result);
    codec::ByteWriter frame;
    frame.u32(static_cast<uint32_t>(payload.bytes().size()));
    frame.u32(util::crc32(payload.bytes()));
    frame.raw(payload.bytes().data(), payload.bytes().size());
    pending_.emplace_back(key, frame.bytes());
    util::retry([&] { publish(); }, util::jitteredRetryPolicy(path_),
                format_.kind + " append " + path_);
    return true;
}

void
RecordLog::publish()
{
    if (format_.beforeLock)
        format_.beforeLock();
    util::FileLock flock(lockPath(), util::FileLock::Mode::Exclusive);
    if (flock.waited() && format_.lockWaits)
        format_.lockWaits->inc();
    Fd file{::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)};
    util::fatalIf(file.fd < 0, "cannot open " + format_.kind + " " +
                                   path_ + ": " + std::strerror(errno));

    uint64_t size = catchUp(file.fd);
    if (size > offset_) {  // a torn or corrupt tail
        util::warn(util::concat(format_.kind, " ", path_,
                                ": truncating ", size - offset_,
                                " corrupt trailing bytes"));
        util::fatalIf(::ftruncate(file.fd,
                                  static_cast<off_t>(offset_)) != 0,
                      "cannot truncate " + path_ + ": " +
                          std::strerror(errno));
    }

    std::string out;
    if (offset_ == 0 && !pending_.empty()) {
        codec::ByteWriter header;
        header.raw(format_.magic, sizeof(format_.magic));
        header.u32(format_.version);
        header.u32(scale_);
        out = header.bytes();
    }
    for (const auto &p : pending_)
        out += p.second;
    if (out.empty())
        return;

    if (format_.beforeWrite)
        format_.beforeWrite();
    // One write(2), never a buffered stream that may split it: a
    // kill -9 lands before or after the copy of the frames, and only
    // a kill inside that copy (or a short write on a full disk) can
    // leave a torn tail, which replay drops and the next cycle
    // truncates.
    ssize_t n = ::pwrite(file.fd, out.data(), out.size(),
                         static_cast<off_t>(offset_));
    util::fatalIf(n < 0, "cannot write " + format_.kind + " " + path_ +
                             ": " + std::strerror(errno));
    util::fatalIf(size_t(n) != out.size(),
                  "short write to " + format_.kind + " " + path_);
    offset_ += out.size();
    pending_.clear();
}

} // namespace tsp::experiment

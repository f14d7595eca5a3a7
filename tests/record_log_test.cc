/**
 * @file
 * Oracle tests of the append-only record log (experiment::RecordLog)
 * under the TSPS result store and the TSPC checkpoint journal.
 * Randomized put / reopen / tear / corrupt sequences from two
 * instances sharing one path run against an in-memory model of the
 * file; after every step the file must replay to exactly the model's
 * record list, in order, each record once. Direct tests pin the
 * O(record) append (the file grows by exactly one frame per put and
 * is never rewritten), the truncation of a foreign torn tail, and a
 * failed append staying pending for the next one.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/record_log.h"
#include "experiment/run_codec.h"
#include "util/checksum.h"
#include "util/error.h"

namespace tsp::experiment {
namespace {

constexpr uint32_t kScale = 64;
constexpr size_t kHeaderBytes = 12;
constexpr size_t kFrameBytes = 8;

bool failWrites = false;

void
writeKey(codec::ByteWriter &w, const std::string &key)
{
    w.u32(static_cast<uint32_t>(key.size()));
    w.raw(key.data(), key.size());
}

std::string
readKey(codec::ByteReader &r)
{
    uint32_t len = r.u32();
    util::fatalIf(len > 64, "test key too long");
    std::string key(len, '\0');
    r.raw(key.data(), len);
    return key;
}

RecordLog::Format
testFormat()
{
    RecordLog::Format format{{'T', 'S', 'T', 'L'}, 1, "test log",
                             writeKey, readKey};
    format.beforeWrite = [] {
        if (failWrites)
            throw std::runtime_error("injected write failure");
    };
    return format;
}

/** A distinct, deterministic result per key. */
RunResult
resultOf(const std::string &key)
{
    RunResult result;
    result.placement = placement::PlacementMap(2, {0, 1, 1});
    result.executionTime = util::crc32(key);
    result.loadImbalance = 1.0 + double(key.size());
    return result;
}

std::string
frameOf(const std::string &key)
{
    codec::ByteWriter payload;
    writeKey(payload, key);
    codec::writeRunResult(payload, resultOf(key));
    codec::ByteWriter w;
    w.u32(static_cast<uint32_t>(payload.bytes().size()));
    w.u32(util::crc32(payload.bytes()));
    w.raw(payload.bytes().data(), payload.bytes().size());
    return w.bytes();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t
inodeOf(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? uint64_t(st.st_ino) : 0;
}

/** An owner of one log: puts each key's own result. */
struct Owner
{
    explicit Owner(const std::string &path)
        : log(path, kScale, testFormat())
    {
        log.open();
    }

    bool put(const std::string &key) { return log.put(key, resultOf(key)); }

    bool
    holds(const std::string &key) const
    {
        auto result = log.lookup(key);
        return result && result->executionTime == util::crc32(key);
    }

    /** The resident keys among cell-0 .. cell-59. */
    std::set<std::string>
    keys() const
    {
        std::set<std::string> out;
        for (int i = 0; i < 60; ++i) {
            std::string key = "cell-" + std::to_string(i);
            if (holds(key))
                out.insert(key);
        }
        return out;
    }

    RecordLog log;
};

std::string
tempLog(const std::string &name)
{
    std::string path = testing::TempDir() + "/" + name + ".tstl";
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    return path;
}

/** Byte offset of each length-complete frame in @p bytes. */
std::vector<size_t>
frameOffsets(const std::string &bytes)
{
    std::vector<size_t> offsets;
    size_t pos = kHeaderBytes;
    while (bytes.size() >= pos + kFrameBytes) {
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        if (len > bytes.size() - pos - kFrameBytes)
            break;
        offsets.push_back(pos);
        pos += kFrameBytes + len;
    }
    return offsets;
}

/**
 * Reference replay: the keys of the file's intact records, in file
 * order, up to the first frame whose CRC fails.
 */
std::vector<std::string>
diskKeys(const std::string &path)
{
    std::string bytes = readFile(path);
    std::vector<std::string> keys;
    for (size_t pos : frameOffsets(bytes)) {
        uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        std::memcpy(&crc, bytes.data() + pos + 4, sizeof(crc));
        std::string_view payload(bytes.data() + pos + kFrameBytes, len);
        if (util::crc32(payload) != crc)
            break;
        codec::ByteReader r(payload);
        keys.push_back(readKey(r));
    }
    return keys;
}

// ------------------------------------------------------ randomized oracle

/**
 * The model: the ordered keys of the file's intact records, the bytes
 * of garbage after them, and what each live instance holds.
 */
struct Model
{
    std::vector<std::string> disk;
    size_t garbage = 0;
    std::set<std::string> resident[2];
};

void
expectMatchesModel(const std::string &path, const Model &model,
                   Owner *owners[2], const std::string &where)
{
    SCOPED_TRACE(where);
    Owner reader(path);
    EXPECT_EQ(diskKeys(path), model.disk);
    EXPECT_EQ(reader.log.size(), model.disk.size());
    EXPECT_EQ(reader.keys(),
              std::set<std::string>(model.disk.begin(), model.disk.end()));
    EXPECT_EQ(reader.log.droppedBytes(), model.garbage);
    std::set<std::string> unique(model.disk.begin(), model.disk.end());
    EXPECT_EQ(unique.size(), model.disk.size()) << "duplicate record";
    size_t expectedSize = 0;
    if (!model.disk.empty() || model.garbage > 0)
        expectedSize = kHeaderBytes + model.garbage;
    for (const std::string &key : model.disk)
        expectedSize += frameOf(key).size();
    EXPECT_EQ(readFile(path).size(), expectedSize);
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(owners[i]->keys(), model.resident[i]) << "owner " << i;
}

void
runOracle(unsigned seed)
{
    std::string path = tempLog("oracle_" + std::to_string(seed));
    std::mt19937 rng(seed);
    auto pick = [&](size_t n) {
        return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };

    Model model;
    std::unique_ptr<Owner> live[2] = {std::make_unique<Owner>(path),
                                      std::make_unique<Owner>(path)};
    auto reopen = [&](int i) {
        live[i] = std::make_unique<Owner>(path);
        EXPECT_EQ(live[i]->log.droppedBytes(), model.garbage);
        model.resident[i] =
            std::set<std::string>(model.disk.begin(), model.disk.end());
    };

    for (int step = 0; step < 250; ++step) {
        std::string where = "seed " + std::to_string(seed) + " step " +
                            std::to_string(step);
        size_t op = pick(10);
        if (op < 6) {
            // Put from either instance, from a key space small enough
            // that the other instance often published the key first.
            int i = static_cast<int>(pick(2));
            std::string key = "cell-" + std::to_string(pick(60));
            bool fresh = !model.resident[i].count(key);
            EXPECT_EQ(live[i]->put(key), fresh) << where;
            if (fresh) {
                // The append adopts every record on disk, cuts the
                // garbage, and writes the key only if nobody has.
                model.resident[i].insert(model.disk.begin(),
                                         model.disk.end());
                model.resident[i].insert(key);
                model.garbage = 0;
                if (std::find(model.disk.begin(), model.disk.end(),
                              key) == model.disk.end())
                    model.disk.push_back(key);
            }
        } else if (op < 7) {
            reopen(static_cast<int>(pick(2)));
        } else if (op < 8) {
            // A foreign writer killed mid-append: a torn frame after
            // the intact records.
            std::string frame =
                frameOf("torn-" + std::to_string(step));
            std::string bytes = readFile(path);
            if (bytes.empty())
                continue;  // no header yet: nothing to tear onto
            size_t keep = 1 + pick(frame.size() - 1);
            bytes += frame.substr(0, keep);
            writeFile(path, bytes);
            model.garbage += keep;
        } else {
            // Bit rot inside an intact record — a flipped CRC byte or
            // a corrupt payload byte, in the middle or at the tail.
            // Everything from that record on is dropped by the next
            // open, so both instances restart on the survivor.
            std::string bytes = readFile(path);
            std::vector<size_t> offsets = frameOffsets(bytes);
            offsets.resize(std::min(offsets.size(), model.disk.size()));
            if (offsets.empty())
                continue;
            size_t victim = pick(offsets.size());
            size_t at = offsets[victim] + (op == 8 ? 4 + pick(4)
                                                   : kFrameBytes + 4);
            bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
            writeFile(path, bytes);
            model.garbage = bytes.size() - offsets[victim];
            model.disk.resize(victim);
            reopen(0);
            reopen(1);
        }
        Owner *owners[2] = {live[0].get(), live[1].get()};
        expectMatchesModel(path, model, owners, where);
        if (testing::Test::HasFailure())
            return;
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, RandomizedTwoInstanceSequencesMatchTheModel)
{
    for (unsigned seed = 1; seed <= 6; ++seed)
        runOracle(seed);
}

// ------------------------------------------------------ direct checks

TEST(RecordLog, EveryPutAppendsExactlyOneFrameAndNeverRewrites)
{
    std::string path = tempLog("append_only");
    Owner owner(path);
    std::string before;
    uint64_t inode = 0;
    size_t expected = kHeaderBytes;
    for (int i = 0; i < 200; ++i) {
        std::string key = "cell-" + std::to_string(i);
        ASSERT_TRUE(owner.put(key));
        std::string after = readFile(path);
        expected += frameOf(key).size();
        ASSERT_EQ(after.size(), expected) << "put " << i;
        // Append-only: the previous file is a byte prefix of the new
        // one, and the file is the same inode (no rename publish).
        ASSERT_EQ(after.compare(0, before.size(), before), 0);
        ASSERT_EQ(after.substr(before.empty() ? kHeaderBytes
                                              : before.size()),
                  frameOf(key));
        if (i == 0)
            inode = inodeOf(path);
        ASSERT_EQ(inodeOf(path), inode);
        before = std::move(after);
    }
    EXPECT_FALSE(owner.put("cell-7"));  // duplicate: no write
    EXPECT_EQ(readFile(path), before);

    Owner reopened(path);
    EXPECT_EQ(reopened.log.size(), 200u);
    EXPECT_TRUE(reopened.holds("cell-199"));
    EXPECT_EQ(reopened.log.droppedBytes(), 0u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, PutAfterAForeignTornTailTruncatesThenAppends)
{
    std::string path = tempLog("foreign_torn");
    Owner owner(path);
    for (const char *key : {"a", "b", "c"})
        ASSERT_TRUE(owner.put(key));
    std::string intact = readFile(path);

    // Another process dies one byte short of finishing its append,
    // of a record longer than the next one.
    std::string torn = frameOf("a-foreign-process-record");
    ASSERT_GT(torn.size() - 1, frameOf("d").size());
    writeFile(path, intact + torn.substr(0, torn.size() - 1));

    ASSERT_TRUE(owner.put("d"));
    EXPECT_EQ(readFile(path), intact + frameOf("d"));

    Owner reopened(path);
    EXPECT_EQ(reopened.log.droppedBytes(), 0u);
    EXPECT_EQ(reopened.log.size(), 4u);
    EXPECT_EQ(diskKeys(path), (std::vector<std::string>{"a", "b", "c", "d"}));
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, InstancesTakingTurnsAdoptEachOthersTail)
{
    std::string path = tempLog("turns");
    Owner left(path), right(path);
    ASSERT_TRUE(left.put("x"));
    ASSERT_TRUE(right.put("y"));  // adopts x, appends y
    EXPECT_TRUE(right.holds("x"));
    size_t size = readFile(path).size();

    // left publishes a key right already appended: left adopts the
    // foreign record and writes nothing.
    ASSERT_TRUE(left.put("y"));
    EXPECT_EQ(readFile(path).size(), size);
    ASSERT_TRUE(left.put("z"));
    ASSERT_TRUE(right.put("w"));  // adopts z
    EXPECT_EQ(left.log.size(), 3u);
    EXPECT_EQ(right.log.size(), 4u);
    EXPECT_TRUE(right.holds("z"));
    EXPECT_FALSE(left.holds("w"));
    EXPECT_EQ(diskKeys(path), (std::vector<std::string>{"x", "y", "z", "w"}));
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, AFileThatShrankIsReplayedFromTheStart)
{
    std::string path = tempLog("shrank");
    Owner writer(path);
    for (const char *key : {"a", "b", "c"})
        ASSERT_TRUE(writer.put(key));
    Owner stale(path);  // has replayed to the end of c

    // Another process cut the file back to its first record.
    std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, kHeaderBytes + frameOf("a").size()));

    ASSERT_TRUE(stale.put("d"));
    Owner reader(path);
    EXPECT_EQ(reader.log.droppedBytes(), 0u);
    EXPECT_EQ(diskKeys(path), (std::vector<std::string>{"a", "d"}));
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, FailedAppendStaysPendingForTheNextOne)
{
    std::string path = tempLog("pending");
    Owner owner(path);
    ASSERT_TRUE(owner.put("first"));
    std::string before = readFile(path);

    failWrites = true;
    EXPECT_THROW(owner.put("second"), std::runtime_error);
    failWrites = false;
    EXPECT_EQ(readFile(path), before);
    EXPECT_TRUE(owner.holds("second"));  // resident

    // The next append writes both frames, the failed one first.
    ASSERT_TRUE(owner.put("third"));
    EXPECT_EQ(readFile(path), before + frameOf("second") + frameOf("third"));
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(RecordLog, ForeignOrWrongScaleHeaderIsRejected)
{
    std::string path = tempLog("header");
    writeFile(path, "definitely not a record log");
    EXPECT_THROW(Owner{path}, util::FatalError);
    {
        RecordLog other(path + ".scaled", kScale * 2, testFormat());
        other.put("k", resultOf("k"));
    }
    EXPECT_THROW(Owner{path + ".scaled"}, util::FatalError);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    std::remove((path + ".scaled").c_str());
    std::remove((path + ".scaled.lock").c_str());
}

} // namespace
} // namespace tsp::experiment

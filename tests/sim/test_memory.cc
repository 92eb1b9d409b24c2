#include "sim/memory.hh"

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/logging.hh"

namespace ximd {
namespace {

/**
 * A dense model of a Memory's words, and the encodings a paged memory
 * must reproduce from it: the run-length archStateHash fold and the
 * MEMY snapshot section (no pending stores, no device windows).
 */
struct DenseRef
{
    explicit DenseRef(std::size_t words) : words(words, 0) {}

    /** Maximal runs of equal words in address order. */
    std::vector<std::pair<std::uint64_t, Word>> runs() const
    {
        std::vector<std::pair<std::uint64_t, Word>> out;
        for (std::size_t i = 0; i < words.size();) {
            std::size_t j = i + 1;
            while (j < words.size() && words[j] == words[i])
                ++j;
            out.emplace_back(j - i, words[i]);
            i = j;
        }
        return out;
    }

    std::uint64_t hash() const
    {
        Hash64 h;
        for (const auto &[len, value] : runs()) {
            h.u64(len);
            h.u32(value);
        }
        return h.digest();
    }

    std::vector<std::uint8_t> stateBytes(const Memory &m) const
    {
        StateWriter w;
        w.tag("MEMY");
        w.u64(words.size());
        w.u8(static_cast<std::uint8_t>(ConflictPolicy::Fault));
        const auto rle = runs();
        w.count(rle.size());
        for (const auto &[len, value] : rle) {
            w.u64(len);
            w.u32(value);
        }
        w.count(0); // pending stores
        w.u64(m.loadCount());
        w.u64(m.storeCount());
        w.count(0); // device windows
        return w.takeBytes();
    }

    std::vector<Word> words;
};

/** @p m holds exactly @p ref's words and encodes them identically. */
void
expectMatchesDense(const Memory &m, const DenseRef &ref)
{
    ASSERT_EQ(m.size(), ref.words.size());
    Hash64 h;
    m.hashContents(h);
    EXPECT_EQ(h.digest(), ref.hash());
    StateWriter w;
    m.saveState(w);
    EXPECT_EQ(w.bytes(), ref.stateBytes(m));
    for (Addr a = 0; a < ref.words.size(); ++a)
        ASSERT_EQ(m.peek(a), ref.words[a]) << "word " << a;
}

/** Commit one store of @p value at @p addr. */
void
storeWord(Memory &m, DenseRef &ref, Addr addr, Word value)
{
    m.queueStore(addr, value, 0);
    m.commit(0);
    ref.words[addr] = value;
}

/** The FatalError message @p fn throws ("" when it does not throw). */
std::string
fatalMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Memory, StartsZeroed)
{
    Memory m(64);
    EXPECT_EQ(m.load(0, 0), 0u);
    EXPECT_EQ(m.load(63, 0), 0u);
}

TEST(Memory, StoreCommitsAtEndOfCycle)
{
    Memory m(64);
    m.queueStore(7, 99, 0);
    EXPECT_EQ(m.load(7, 0), 0u);
    m.commit(0);
    EXPECT_EQ(m.load(7, 1), 99u);
}

TEST(Memory, SameAddressConflictFaults)
{
    Memory m(64);
    m.queueStore(7, 1, 0);
    m.queueStore(7, 2, 3);
    EXPECT_THROW(m.commit(0), FatalError);
}

TEST(Memory, DistinctAddressesNoConflict)
{
    Memory m(64);
    for (FuId fu = 0; fu < 8; ++fu)
        m.queueStore(fu, fu, fu);
    EXPECT_NO_THROW(m.commit(0));
    EXPECT_EQ(m.load(5, 1), 5u);
}

TEST(Memory, OutOfRangeFaults)
{
    Memory m(16);
    EXPECT_THROW(m.load(16, 0), FatalError);
    EXPECT_THROW(m.queueStore(99, 0, 0), FatalError);
}

TEST(Memory, OutOfRangeMessageNamesAddressAndSize)
{
    // The last page is partial: words past size() but inside the page
    // are still out of range.
    Memory m(5000);
    const std::string want =
        "fatal: memory address 5000 out of range (5000 words)";
    EXPECT_EQ(fatalMessage([&] { m.load(5000, 0); }), want);
    EXPECT_EQ(fatalMessage([&] { m.queueStore(5000, 1, 0); }), want);
    EXPECT_EQ(fatalMessage([&] { m.poke(5000, 1); }), want);
    EXPECT_EQ(fatalMessage([&] { m.peek(5000); }), want);
}

TEST(Memory, FreshMemoryEncodesAsOneZeroRun)
{
    for (std::size_t words :
         {std::size_t(1), std::size_t(4096), std::size_t(4097),
          std::size_t(5000), std::size_t(1) << 20}) {
        SCOPED_TRACE(words);
        expectMatchesDense(Memory(words), DenseRef(words));
    }
}

TEST(Memory, SparseStoresAcrossPageBoundary)
{
    Memory m(3 * Memory::kPageWords);
    DenseRef ref(3 * Memory::kPageWords);
    storeWord(m, ref, 4095, 7);
    storeWord(m, ref, 4096, 7); // one run spanning two pages
    expectMatchesDense(m, ref);
    storeWord(m, ref, 4096, 8); // now two runs
    storeWord(m, ref, 12287, 9); // last word of the last page
    expectMatchesDense(m, ref);
    EXPECT_EQ(m.load(4095, 0), 7u);
    EXPECT_EQ(m.load(4096, 0), 8u);
    EXPECT_EQ(m.load(8191, 0), 0u); // never-written page
}

TEST(Memory, StoringZeroIntoUntouchedPageChangesNoEncoding)
{
    Memory m(1u << 20);
    DenseRef ref(1u << 20);
    Hash64 fresh;
    m.hashContents(fresh);
    storeWord(m, ref, 8192, 0);
    m.poke(700000, 0);
    expectMatchesDense(m, ref);
    Hash64 after;
    m.hashContents(after);
    EXPECT_EQ(after.digest(), fresh.digest());
}

TEST(Memory, PartialLastPage)
{
    for (std::size_t words :
         {std::size_t(1), std::size_t(4097), std::size_t(5000)}) {
        SCOPED_TRACE(words);
        Memory m(words);
        DenseRef ref(words);
        const Addr last = static_cast<Addr>(words - 1);
        storeWord(m, ref, last, 0xdeadbeef);
        expectMatchesDense(m, ref);
        storeWord(m, ref, 0, 0xdeadbeef);
        expectMatchesDense(m, ref);
        EXPECT_EQ(m.load(last, 0), 0xdeadbeefu);
    }
}

TEST(Memory, RestoreIntoDirtiedMemoryClearsStaleWords)
{
    constexpr std::size_t kWords = 5000;
    Memory source(kWords);
    DenseRef ref(kWords);
    storeWord(source, ref, 10, 1);
    storeWord(source, ref, 4100, 2);
    StateWriter w;
    source.saveState(w);

    // Dirty words the snapshot holds as zero, on both pages and on a
    // page the snapshot never touched.
    Memory target(kWords);
    target.poke(11, 5);
    target.poke(4095, 6);
    target.poke(4101, 7);
    target.poke(4999, 8);
    StateReader r(w.bytes());
    target.loadState(r);
    EXPECT_TRUE(r.atEnd());
    for (Addr a : {11u, 4095u, 4101u, 4999u})
        EXPECT_EQ(target.peek(a), 0u) << "word " << a;
    EXPECT_EQ(target.peek(10), 1u);
    EXPECT_EQ(target.peek(4100), 2u);
    expectMatchesDense(target, ref);
    EXPECT_EQ(target.stateHash(), source.stateHash());
}

TEST(Memory, PokePeek)
{
    Memory m(16);
    m.poke(3, 77);
    EXPECT_EQ(m.peek(3), 77u);
}

TEST(Memory, DeviceWindowRoutesReads)
{
    Memory m(64);
    ScriptedInputPort port("in");
    port.schedule(5, 123);
    m.attachDevice(10, 10, &port);
    EXPECT_EQ(m.load(10, 0), 0u);   // before arrival
    EXPECT_EQ(m.load(10, 5), 123u); // consumed
    EXPECT_EQ(m.load(10, 6), 0u);   // queue empty again
}

TEST(Memory, DeviceWindowRoutesWritesAtCommit)
{
    Memory m(64);
    OutputPort port("out");
    m.attachDevice(20, 20, &port);
    m.queueStore(20, 55, 0);
    EXPECT_TRUE(port.records().empty());
    m.commit(9);
    ASSERT_EQ(port.records().size(), 1u);
    EXPECT_EQ(port.records()[0].value, 55u);
    EXPECT_EQ(port.records()[0].cycle, 9u);
}

TEST(Memory, OverlappingWindowsRejected)
{
    Memory m(64);
    OutputPort a("a"), b("b");
    m.attachDevice(10, 15, &a);
    EXPECT_THROW(m.attachDevice(15, 20, &b), FatalError);
    EXPECT_NO_THROW(m.attachDevice(16, 20, &b));
}

TEST(Memory, PokeIntoDeviceWindowRejected)
{
    Memory m(64);
    OutputPort a("a");
    m.attachDevice(10, 10, &a);
    EXPECT_THROW(m.poke(10, 1), FatalError);
    EXPECT_THROW(m.peek(10), FatalError);
    // Only the window: its neighbours stay plain RAM.
    m.poke(11, 5);
    EXPECT_EQ(m.peek(11), 5u);
}

TEST(Memory, WindowOffsetsPassedToDevice)
{
    // The device sees addresses relative to its window base.
    class Probe : public IoDevice
    {
      public:
        Word read(Addr offset, Cycle) override { return offset + 1; }
        void write(Addr, Word, Cycle) override {}
        std::string name() const override { return "probe"; }
    } probe;
    Memory m(64);
    m.attachDevice(30, 33, &probe);
    EXPECT_EQ(m.load(30, 0), 1u);
    EXPECT_EQ(m.load(33, 0), 4u);
}

TEST(Memory, CountsTraffic)
{
    Memory m(16);
    m.load(0, 0);
    m.queueStore(1, 1, 0);
    m.commit(0);
    EXPECT_EQ(m.loadCount(), 1u);
    EXPECT_EQ(m.storeCount(), 1u);
}

} // namespace
} // namespace ximd

#include "sim/memory.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ximd {

namespace {

/** Every untouched page of every memory reads this; never written. */
const Word kZeroPage[Memory::kPageWords] = {};

} // namespace

Memory::Memory(std::size_t words, ConflictPolicy policy)
    : size_(words),
      table_((words >> kPageShift) + ((words & (kPageWords - 1)) != 0),
             kZeroPage),
      owned_(table_.size()),
      policy_(policy)
{
    if (words == 0)
        fatal("memory must contain at least one word");
}

Word *
Memory::touchPage(std::size_t page)
{
    owned_[page] = std::make_unique<Word[]>(kPageWords);
    table_[page] = owned_[page].get();
    return owned_[page].get();
}

template <typename Emit>
void
Memory::forEachRun(Emit emit) const
{
    // The open run is (len, value); while it is empty its value is 0,
    // so leading zeros simply extend it.
    std::uint64_t len = 0;
    Word value = 0;
    for (std::size_t p = 0; p < owned_.size(); ++p) {
        const std::size_t n =
            std::min(kPageWords, size_ - (p << kPageShift));
        const Word *page = owned_[p].get();
        if (!page) {
            if (value != 0) {
                emit(len, value);
                len = 0;
                value = 0;
            }
            len += n;
            continue;
        }
        for (std::size_t i = 0; i < n;) {
            std::size_t j = i + 1;
            while (j < n && page[j] == page[i])
                ++j;
            if (page[i] == value) {
                len += j - i;
            } else {
                if (len != 0)
                    emit(len, value);
                value = page[i];
                len = j - i;
            }
            i = j;
        }
    }
    emit(len, value);
}

void
Memory::attachDevice(Addr lo, Addr hi, IoDevice *device)
{
    XIMD_ASSERT(device != nullptr, "null device");
    if (lo > hi)
        fatal("device '", device->name(), "': window [", lo, ", ", hi,
              "] is empty");
    checkAddr(hi);
    for (const auto &w : windows_) {
        if (lo <= w.hi && w.lo <= hi)
            fatal("device '", device->name(), "' window [", lo, ", ", hi,
                  "] overlaps '", w.device->name(), "' [", w.lo, ", ",
                  w.hi, "]");
    }
    windows_.push_back({lo, hi, device});
}

void
Memory::checkAddr(Addr addr) const
{
    if (addr >= size_)
        fatal("memory address ", addr, " out of range (", size_,
              " words)");
}

const Memory::DeviceWindow *
Memory::findWindow(Addr addr) const
{
    for (const auto &w : windows_)
        if (addr >= w.lo && addr <= w.hi)
            return &w;
    return nullptr;
}

Word
Memory::load(Addr addr, Cycle now)
{
    checkAddr(addr);
    ++loads_;
    if (const DeviceWindow *w = findWindow(addr))
        return w->device->read(addr - w->lo, now);
    return wordAt(table_.data(), addr);
}

void
Memory::queueStore(Addr addr, Word value, FuId fu)
{
    checkAddr(addr);
    pending_.push_back({addr, value, fu});
}

void
Memory::commit(Cycle now)
{
    if (pending_.empty())
        return;
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const PendingStore &x, const PendingStore &y) {
                         if (x.addr != y.addr)
                             return x.addr < y.addr;
                         return x.fu < y.fu;
                     });
    for (std::size_t i = 1; i < pending_.size(); ++i) {
        const auto &prev = pending_[i - 1];
        const auto &cur = pending_[i];
        if (prev.addr == cur.addr && prev.fu != cur.fu &&
            policy_ == ConflictPolicy::Fault) {
            pending_.clear();
            fatal("memory write conflict: FU", prev.fu, " and FU",
                  cur.fu, " both store to address ", cur.addr,
                  " this cycle");
        }
    }
    Addr last_addr = 0;
    bool have_last = false;
    for (const auto &s : pending_) {
        if (have_last && s.addr == last_addr)
            continue;
        if (const DeviceWindow *w = findWindow(s.addr))
            w->device->write(s.addr - w->lo, s.value, now);
        else
            setWord(s.addr, s.value);
        ++stores_;
        last_addr = s.addr;
        have_last = true;
    }
    pending_.clear();
}

void
Memory::poke(Addr addr, Word value)
{
    checkAddr(addr);
    if (findWindow(addr))
        fatal("poke() into device window at address ", addr);
    setWord(addr, value);
}

Word
Memory::peekChecked(Addr addr) const
{
    checkAddr(addr);
    if (findWindow(addr))
        fatal("peek() into device window at address ", addr);
    return wordAt(table_.data(), addr);
}

std::vector<IoDevice *>
Memory::attachedDevices() const
{
    std::vector<IoDevice *> out;
    out.reserve(windows_.size());
    for (const DeviceWindow &w : windows_)
        out.push_back(w.device);
    return out;
}

void
Memory::saveState(StateWriter &w) const
{
    w.tag("MEMY");
    w.u64(size_);
    w.u8(static_cast<std::uint8_t>(policy_));

    // Run-length encode the word array: (count, value) pairs. The
    // idealized memory is 2^20 words and almost entirely zero, so
    // this keeps snapshots compact without a real compressor.
    std::uint64_t runs = 0;
    forEachRun([&](std::uint64_t, Word) { ++runs; });
    w.count(runs);
    forEachRun([&](std::uint64_t len, Word value) {
        w.u64(len);
        w.u32(value);
    });

    w.count(pending_.size());
    for (const PendingStore &p : pending_) {
        w.u32(p.addr);
        w.u32(p.value);
        w.u32(p.fu);
    }
    w.u64(loads_);
    w.u64(stores_);

    w.count(windows_.size());
    for (const DeviceWindow &win : windows_) {
        w.u32(win.lo);
        w.u32(win.hi);
        w.str(win.device->name());
        win.device->saveState(w);
    }
}

void
Memory::loadState(StateReader &r)
{
    r.checkTag("MEMY");
    const std::uint64_t size = r.u64();
    if (size != size_)
        fatal("memory state has ", size, " words, this machine has ",
              size_);
    const auto policy = static_cast<ConflictPolicy>(r.u8());
    if (policy != policy_)
        fatal("memory state was saved under a different conflict "
              "policy");

    // Release every page, so zero runs replay by skipping and only
    // non-zero runs get page storage.
    const std::size_t runs = r.count(size_);
    for (std::size_t p = 0; p < owned_.size(); ++p) {
        owned_[p].reset();
        table_[p] = kZeroPage;
    }
    std::size_t at = 0;
    for (std::size_t i = 0; i < runs; ++i) {
        const std::uint64_t len = r.u64();
        const Word value = r.u32();
        if (len > size_ - at)
            fatal("memory state run overflows the word array at word ",
                  at);
        if (value != 0)
            for (std::uint64_t k = 0; k < len; ++k)
                setWord(static_cast<Addr>(at + k), value);
        at += len;
    }
    if (at != size_)
        fatal("memory state covers ", at, " of ", size_, " words");

    pending_.resize(r.count(size_));
    for (PendingStore &p : pending_) {
        p.addr = r.u32();
        p.value = r.u32();
        p.fu = r.u32();
    }
    loads_ = r.u64();
    stores_ = r.u64();

    const std::size_t nwin = r.count(1u << 16);
    if (nwin != windows_.size())
        fatal("memory state has ", nwin, " device windows, this "
              "machine has ", windows_.size(),
              " (restore requires the fixture to re-attach the same "
              "devices first)");
    for (DeviceWindow &win : windows_) {
        const Addr lo = r.u32();
        const Addr hi = r.u32();
        const std::string name = r.str();
        if (lo != win.lo || hi != win.hi || name != win.device->name())
            fatal("memory state window [", lo, ", ", hi, "] '", name,
                  "' does not match attached window [", win.lo, ", ",
                  win.hi, "] '", win.device->name(), "'");
        win.device->loadState(r);
    }
}

void
Memory::hashContents(Hash64 &h) const
{
    // Hash as runs so the cost tracks pages touched, not capacity:
    // the idealized memory is 2^20 words and campaigns hash every job.
    forEachRun([&](std::uint64_t len, Word value) {
        h.u64(len);
        h.u32(value);
    });
}

} // namespace ximd

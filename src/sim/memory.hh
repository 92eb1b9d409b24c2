/**
 * @file
 * The idealized shared memory of the XIMD-1 research model.
 *
 * Section 2.3: "Each functional unit can read or write to memory every
 * cycle. All ports use a single shared address space. Memory operations
 * complete in one cycle. Multiple writes to the same location in one
 * cycle are undefined."
 *
 * The memory is word-addressed. Loads observe beginning-of-cycle
 * contents; stores are queued and committed at end of cycle, with
 * same-address conflict detection. Address windows can be claimed by
 * IoDevice instances (section 3.4's I/O ports); device reads happen
 * combinationally during execute, device writes at commit.
 *
 * The word array is paged: 4096-word pages get their own storage on
 * their first write, and every untouched page shares one read-only
 * zero page. A load is still one table lookup, while construction,
 * hashing and serialization cost O(pages touched) instead of
 * O(size()) — the default memory is 2^20 words and a short job
 * touches a handful of pages.
 */

#ifndef XIMD_SIM_MEMORY_HH
#define XIMD_SIM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/io_port.hh"
#include "sim/register_file.hh" // ConflictPolicy
#include "support/types.hh"

namespace ximd {

/** Word-addressed shared memory with device windows. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageWords = std::size_t(1)
                                              << kPageShift;

    explicit Memory(std::size_t words,
                    ConflictPolicy policy = ConflictPolicy::Fault);

    std::size_t size() const { return size_; }

    /**
     * Attach @p device to the address window [lo, hi] (inclusive).
     * Windows must not overlap each other. The device receives offsets
     * relative to @p lo. The device is not owned.
     */
    void attachDevice(Addr lo, Addr hi, IoDevice *device);

    /** Load a word (beginning-of-cycle value, or device read). */
    Word load(Addr addr, Cycle now);

    /** Queue a store from @p fu; committed at end of cycle. */
    void queueStore(Addr addr, Word value, FuId fu);

    /** Commit queued stores; detects same-address conflicts. */
    void commit(Cycle now);

    /** Discard queued stores (used on machine fault). */
    void squash() { pending_.clear(); }

    /** Test/debug: write a word immediately (RAM only). */
    void poke(Addr addr, Word value);

    /** Test/debug: read a word without side effects (RAM only). */
    Word peek(Addr addr) const
    {
        if (addr < size_ && windows_.empty())
            return wordAt(table_.data(), addr);
        return peekChecked(addr);
    }

    /** True when any device window is attached. */
    bool hasDevices() const { return !windows_.empty(); }

    /** True when @p addr falls inside an attached device window. */
    bool inDeviceWindow(Addr addr) const
    {
        return findWindow(addr) != nullptr;
    }

    /** Total loads performed. */
    std::uint64_t loadCount() const { return loads_; }

    /** Total stores committed. */
    std::uint64_t storeCount() const { return stores_; }

    /** Devices attached, in attachment order (fault-engine access). */
    std::vector<IoDevice *> attachedDevices() const;

    /// @name Checkpointing (see DESIGN.md section 9).
    /// @{
    /**
     * Serialize full state. The word array is run-length encoded
     * (idealized memory is overwhelmingly zero), pending stores and
     * counters follow, then each attached device's state in
     * attachment order.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state saved by saveState(). The memory must have the
     * same word count and conflict policy, and the same device
     * windows must already be attached (restore callers re-run their
     * fixture setup first); throws FatalError otherwise.
     */
    void loadState(StateReader &r);

    /** Stable 64-bit hash of the serialized state. */
    std::uint64_t stateHash() const { return stateHashOf(*this); }

    /** Fold only the architectural contents (RAM words) into @p h. */
    void hashContents(Hash64 &h) const;
    /// @}

  private:
    // The threaded execution backend (core/threaded_backend.cc) loads
    // through the page table, stores through setWord() (it only runs
    // with no device windows attached), and bulk-updates the counters.
    friend class ThreadedBackend;

    struct DeviceWindow
    {
        Addr lo;
        Addr hi;
        IoDevice *device;
    };

    struct PendingStore
    {
        Addr addr;
        Word value;
        FuId fu;
    };

    /** RAM word at in-range @p addr, read through page table @p table. */
    static Word wordAt(const Word *const *table, Addr addr)
    {
        return table[addr >> kPageShift][addr & (kPageWords - 1)];
    }

    /** Write the RAM word at in-range @p addr. */
    void setWord(Addr addr, Word value)
    {
        Word *page = owned_[addr >> kPageShift].get();
        if (!page)
            page = touchPage(addr >> kPageShift);
        page[addr & (kPageWords - 1)] = value;
    }

    /** Give untouched page @p page its own zeroed storage. */
    Word *touchPage(std::size_t page);

    /**
     * Call @p emit(length, value) for each maximal run of equal words
     * in address order — the dense scan's decomposition, at O(1) per
     * untouched page.
     */
    template <typename Emit>
    void forEachRun(Emit emit) const;

    void checkAddr(Addr addr) const;
    const DeviceWindow *findWindow(Addr addr) const;

    /** peek() with its range and device-window checks. */
    Word peekChecked(Addr addr) const;

    std::size_t size_;
    /** Per page: its storage, or the shared zero page while untouched. */
    std::vector<const Word *> table_;
    /** Per page: owned storage, null while untouched. */
    std::vector<std::unique_ptr<Word[]>> owned_;
    ConflictPolicy policy_;
    std::vector<DeviceWindow> windows_;
    std::vector<PendingStore> pending_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
};

} // namespace ximd

#endif // XIMD_SIM_MEMORY_HH

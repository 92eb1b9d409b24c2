#include "core/stats.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"
#include "support/str.hh"

namespace ximd {

RunStats::RunStats(FuId numFus)
    : numFus_(numFus)
{
    XIMD_ASSERT(numFus > 0 && numFus <= kMaxFus, "bad FU count ", numFus);
}

void
RunStats::countParcel(OpClass cls)
{
    ++parcels_;
    ++classCounts_[static_cast<std::size_t>(cls)];
}

void
RunStats::countConditionalBranch(bool taken)
{
    ++condBranches_;
    if (taken)
        ++takenBranches_;
}

void
RunStats::countParcels(OpClass cls, std::uint64_t n)
{
    parcels_ += n;
    classCounts_[static_cast<std::size_t>(cls)] += n;
}

void
RunStats::countConditionalBranches(bool taken, std::uint64_t n)
{
    condBranches_ += n;
    if (taken)
        takenBranches_ += n;
}

RunStats &
RunStats::merge(const RunStats &other)
{
    numFus_ = std::max(numFus_, other.numFus_);
    cycles_ += other.cycles_;
    parcels_ += other.parcels_;
    for (std::size_t i = 0; i < classCounts_.size(); ++i)
        classCounts_[i] += other.classCounts_[i];
    condBranches_ += other.condBranches_;
    takenBranches_ += other.takenBranches_;
    busyWaitCycles_ += other.busyWaitCycles_;
    for (const auto &[streams, cycles] : other.partitionCycles_)
        partitionCycles_[streams] += cycles;
    return *this;
}

std::uint64_t
RunStats::byClass(OpClass cls) const
{
    return classCounts_[static_cast<std::size_t>(cls)];
}

std::uint64_t
RunStats::dataOps() const
{
    return parcels_ - nops();
}

std::uint64_t
RunStats::flops() const
{
    return byClass(OpClass::FloatAlu) + byClass(OpClass::FloatCompare);
}

double
RunStats::meanStreams() const
{
    Cycle total = 0;
    double weighted = 0.0;
    for (const auto &[streams, cycles] : partitionCycles_) {
        total += cycles;
        weighted += static_cast<double>(streams) *
                    static_cast<double>(cycles);
    }
    return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

double
RunStats::utilization() const
{
    if (cycles_ == 0)
        return 0.0;
    return static_cast<double>(dataOps()) /
           (static_cast<double>(cycles_) * numFus_);
}

double
RunStats::mips(double cycleNs) const
{
    if (cycles_ == 0 || cycleNs <= 0.0)
        return 0.0;
    const double seconds = static_cast<double>(cycles_) * cycleNs * 1e-9;
    return static_cast<double>(dataOps()) / seconds / 1e6;
}

double
RunStats::mflops(double cycleNs) const
{
    if (cycles_ == 0 || cycleNs <= 0.0)
        return 0.0;
    const double seconds = static_cast<double>(cycles_) * cycleNs * 1e-9;
    return static_cast<double>(flops()) / seconds / 1e6;
}

std::string
RunStats::formatted() const
{
    std::ostringstream os;
    os << "cycles:             " << cycles_ << "\n"
       << "parcels executed:   " << parcels_ << "\n"
       << "data ops:           " << dataOps() << "\n"
       << "  int alu:          " << byClass(OpClass::IntAlu) << "\n"
       << "  int compare:      " << byClass(OpClass::IntCompare) << "\n"
       << "  float alu:        " << byClass(OpClass::FloatAlu) << "\n"
       << "  float compare:    " << byClass(OpClass::FloatCompare) << "\n"
       << "  convert:          " << byClass(OpClass::Convert) << "\n"
       << "  loads:            " << byClass(OpClass::MemLoad) << "\n"
       << "  stores:           " << byClass(OpClass::MemStore) << "\n"
       << "nops:               " << nops() << "\n"
       << "cond branches:      " << condBranches_
       << " (taken " << takenBranches_ << ")\n"
       << "busy-wait FU-cycles:" << busyWaitCycles_ << "\n"
       << "utilization:        " << fixed(utilization() * 100.0, 1)
       << "%\n"
       << "mean streams:       " << fixed(meanStreams(), 2) << "\n";
    if (!partitionCycles_.empty()) {
        os << "partition histogram (streams -> cycles):\n";
        for (const auto &[streams, cycles] : partitionCycles_)
            os << "  " << streams << " -> " << cycles << "\n";
    }
    return os.str();
}

std::string
RunStats::json(double cycleNs, const std::string &backend) const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": " << kStatsJsonSchema << ",\n";
    if (!backend.empty()) {
        // Which execution configuration produced these numbers: the
        // effective backend, and the program representation it
        // dispatches over (the interpreter walks DecodedParcel rows;
        // the threaded backend the flattened per-FU token streams).
        os << "  \"backend\": \"" << backend << "\",\n"
           << "  \"predecode\": \""
           << (backend == "interp" ? "decoded" : "flat") << "\",\n";
    }
    os << "  \"cycles\": " << cycles_ << ",\n"
       << "  \"parcels\": " << parcels_ << ",\n"
       << "  \"data_ops\": " << dataOps() << ",\n"
       << "  \"int_alu\": " << byClass(OpClass::IntAlu) << ",\n"
       << "  \"int_compare\": " << byClass(OpClass::IntCompare) << ",\n"
       << "  \"float_alu\": " << byClass(OpClass::FloatAlu) << ",\n"
       << "  \"float_compare\": " << byClass(OpClass::FloatCompare)
       << ",\n"
       << "  \"convert\": " << byClass(OpClass::Convert) << ",\n"
       << "  \"loads\": " << byClass(OpClass::MemLoad) << ",\n"
       << "  \"stores\": " << byClass(OpClass::MemStore) << ",\n"
       << "  \"nops\": " << nops() << ",\n"
       << "  \"cond_branches\": " << condBranches_ << ",\n"
       << "  \"taken_branches\": " << takenBranches_ << ",\n"
       << "  \"busy_wait_fu_cycles\": " << busyWaitCycles_ << ",\n"
       << "  \"utilization\": " << fixed(utilization(), 6) << ",\n"
       << "  \"mean_streams\": " << fixed(meanStreams(), 6) << ",\n"
       << "  \"mips\": " << fixed(mips(cycleNs), 6) << ",\n"
       << "  \"mflops\": " << fixed(mflops(cycleNs), 6) << ",\n"
       << "  \"partition_histogram\": {";
    bool first = true;
    for (const auto &[streams, cycles] : partitionCycles_) {
        os << (first ? "" : ", ") << "\"" << streams << "\": " << cycles;
        first = false;
    }
    os << "}\n}\n";
    return os.str();
}

void
RunStats::saveState(StateWriter &w) const
{
    w.tag("STAT");
    w.u32(numFus_);
    w.u64(cycles_);
    w.u64(parcels_);
    for (std::uint64_t c : classCounts_)
        w.u64(c);
    w.u64(condBranches_);
    w.u64(takenBranches_);
    w.u64(busyWaitCycles_);
    w.count(partitionCycles_.size());
    for (const auto &[streams, cycles] : partitionCycles_) {
        w.u32(streams);
        w.u64(cycles);
    }
}

void
RunStats::loadState(StateReader &r)
{
    r.checkTag("STAT");
    const FuId n = r.u32();
    if (n != numFus_)
        fatal("stats state has ", n, " FUs, this machine has ",
              numFus_);
    cycles_ = r.u64();
    parcels_ = r.u64();
    for (std::uint64_t &c : classCounts_)
        c = r.u64();
    condBranches_ = r.u64();
    takenBranches_ = r.u64();
    busyWaitCycles_ = r.u64();
    partitionCycles_.clear();
    const std::size_t buckets = r.count(kMaxFus + 1);
    for (std::size_t i = 0; i < buckets; ++i) {
        const unsigned streams = r.u32();
        partitionCycles_[streams] = r.u64();
    }
}

} // namespace ximd

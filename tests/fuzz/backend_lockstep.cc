#include "backend_lockstep.hh"

#include <gtest/gtest.h>

#include "core/machine.hh"

namespace ximd {

void
lockstepCompare(const Program &prog, const MachineConfig &config,
                const std::string &label, int maxCuts,
                const std::function<Cycle(int)> &chunkAt, StopReason end)
{
    Machine interp(prog, MachineConfig(config).withBackend(Backend::Interp));
    Machine threaded(prog,
                     MachineConfig(config).withBackend(Backend::Threaded));
    ASSERT_EQ(threaded.core().demotionReason(), "") << label;

    for (int cut = 0; cut < maxCuts; ++cut) {
        const Cycle chunk = chunkAt(cut);
        const RunResult ri = interp.run(chunk);
        const RunResult rt = threaded.run(chunk);
        const std::string where = label + " cut " + std::to_string(cut) +
                                  " at cycle " +
                                  std::to_string(interp.cycle());
        ASSERT_EQ(ri.reason, rt.reason) << where;
        ASSERT_EQ(ri.cycles, rt.cycles) << where;
        ASSERT_EQ(ri.faultMessage, rt.faultMessage) << where;
        ASSERT_EQ(interp.cycle(), threaded.cycle()) << where;
        ASSERT_EQ(interp.archStateHash(), threaded.archStateHash())
            << where;
        ASSERT_EQ(interp.stateHash(), threaded.stateHash()) << where;
        ASSERT_EQ(interp.stats().formatted(),
                  threaded.stats().formatted())
            << where;
        ASSERT_EQ(interp.partitions().formatted(),
                  threaded.partitions().formatted())
            << where;
        if (ri.reason != StopReason::MaxCycles) {
            ASSERT_EQ(ri.reason, end) << where << ": " << ri.faultMessage;
            return;
        }
    }
    ASSERT_EQ(end, StopReason::MaxCycles)
        << label << " did not stop within the cut schedule";
}

} // namespace ximd

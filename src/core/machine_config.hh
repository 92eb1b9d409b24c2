/**
 * @file
 * Configuration shared by the XIMD (xsim) and VLIW (vsim) machines.
 *
 * A MachineConfig is plain data — copying one is cheap and never
 * shares state, which is what makes a RunSpec (farm/run_spec.hh)
 * self-contained: every job carries its own config by value, so
 * concurrent runs cannot observe each other through configuration.
 *
 * Two construction styles are supported:
 *
 *  - aggregate: `MachineConfig cfg; cfg.recordTrace = true;`
 *  - builder:   `MachineConfig::vliw().withTrace().withSeed(7)`, which
 *    names the sequencing discipline up front and chains the switches.
 *
 * The discipline is data: `Machine m(prog, MachineConfig::vliw())`
 * (core/machine.hh) builds a VLIW machine; the default config builds
 * an XIMD one.
 */

#ifndef XIMD_CORE_MACHINE_CONFIG_HH
#define XIMD_CORE_MACHINE_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "sim/register_file.hh"
#include "support/types.hh"

namespace ximd {

/** Sequencing discipline of a machine built around MachineCore. */
enum class Mode : std::uint8_t {
    Ximd, ///< One sequencer per FU + combinational sync bus.
    Vliw, ///< One sequencer (FU0's control fields) for all lanes.
};

/** "ximd" / "vliw". */
const char *modeName(Mode mode);

/**
 * Execution backend driving the five-phase cycle loop (see
 * core/exec_backend.hh and DESIGN.md section 12).
 */
enum class Backend : std::uint8_t {
    Interp,   ///< Reference interpreter; the semantic oracle.
    Threaded, ///< Token-threaded dispatch over flattened streams.
};

/** "interp" / "threaded". */
const char *backendName(Backend backend);

/** Machine parameters. The FU count comes from the program's width. */
struct MachineConfig
{
    /** Sequencing discipline (used by Machine and the farm). */
    Mode mode = Mode::Ximd;

    /**
     * Execution backend. The threaded backend is the default; it is
     * observationally equivalent to the interpreter and the core
     * auto-demotes to Backend::Interp whenever an attached observer
     * (trace, race check, fault injection) or configuration (result
     * latency > 1, registered sync, device windows) needs per-cycle
     * fidelity. MachineCore::demotionReason() explains a demotion.
     */
    Backend backend = Backend::Threaded;

    /** Words of idealized shared memory. */
    std::size_t memWords = 1u << 20;

    /** Handling of architecturally-undefined same-cycle write races. */
    ConflictPolicy conflictPolicy = ConflictPolicy::Fault;

    /** Record a Figure-10-style address trace while running. */
    bool recordTrace = false;

    /**
     * Track the SSET partition each cycle (on by default). On the
     * threaded backend this is one stream count per cycle: over
     * collectStats alone, 0-10 ns per simulated cycle on the XIMD
     * long-jobs specs (most on the 8-FU multisearch), and nothing on
     * VLIW, whose one stream is a constant (DESIGN.md section 12).
     */
    bool trackPartitions = true;

    /**
     * Accumulate RunStats while running. Off, together with
     * trackPartitions and recordTrace off, the core runs with no
     * observers attached — the bare-interpreter configuration.
     */
    bool collectStats = true;

    /**
     * Allow run() to fast-forward through busy-wait fixpoints: when
     * every live FU provably re-executes the same self-looping nop
     * parcel with unchanging condition inputs (and no write-backs or
     * devices are in flight), skip to the cycle limit in O(1).
     * Observers are informed of the skipped cycles, so statistics and
     * traces stay bit-identical to stepping.
     */
    bool fastForward = true;

    /**
     * Ablation switch: evaluate sync-signal branch conditions against
     * the *previous* cycle's SS values (registered distribution)
     * instead of the paper's combinational same-cycle distribution
     * (Figure 8). Costs one extra cycle per barrier join.
     */
    bool registeredSync = false;

    /**
     * Data-path write-back latency in cycles. 1 is the research
     * model (results visible the next cycle); 3 models the hardware
     * prototype's "3-stage Data Path Pipeline (Operand Fetch -
     * Execute - Write Back)" of section 4.3. The control path stays
     * non-pipelined, as in the prototype. Code must be compiled for
     * the chosen latency (CodegenOptions::rawLatency).
     */
    unsigned resultLatency = 1;

    /** Default cycle budget for run(); guards runaway programs. */
    Cycle defaultMaxCycles = 100'000'000;

    /**
     * Prototype cycle time used to convert cycle counts into MIPS /
     * MFLOPS. Section 4.3: "An initial performance analysis predicts a
     * cycle time of 85ns."
     */
    double cycleTimeNs = 85.0;

    /**
     * Per-run PRNG seed. The machine itself draws no random numbers —
     * determinism is the point of the simulator — but run fixtures
     * (workload input generation, scripted I/O arrival times) derive
     * their Rng streams from this value, so a batch job's outcome is a
     * pure function of its RunSpec regardless of which thread executes
     * it or how many run beside it.
     */
    std::uint64_t seed = 0;

    /// @name Builder surface.
    /// @{
    /** Start a config for the XIMD sequencing discipline. */
    static MachineConfig ximd()
    {
        MachineConfig c;
        c.mode = Mode::Ximd;
        return c;
    }

    /** Start a config for the VLIW sequencing discipline. */
    static MachineConfig vliw()
    {
        MachineConfig c;
        c.mode = Mode::Vliw;
        return c;
    }

    MachineConfig &withMode(Mode m) { mode = m; return *this; }
    MachineConfig &withBackend(Backend b) { backend = b; return *this; }
    MachineConfig &withStats(bool on = true) { collectStats = on; return *this; }
    MachineConfig &withTrace(bool on = true) { recordTrace = on; return *this; }
    MachineConfig &withPartitions(bool on = true) { trackPartitions = on; return *this; }
    MachineConfig &withFastForward(bool on = true) { fastForward = on; return *this; }
    MachineConfig &withRegisteredSync(bool on = true) { registeredSync = on; return *this; }
    MachineConfig &withResultLatency(unsigned cycles) { resultLatency = cycles; return *this; }
    MachineConfig &withMemWords(std::size_t words) { memWords = words; return *this; }
    MachineConfig &withMaxCycles(Cycle n) { defaultMaxCycles = n; return *this; }
    MachineConfig &withConflictPolicy(ConflictPolicy p) { conflictPolicy = p; return *this; }
    MachineConfig &withCycleTime(double ns) { cycleTimeNs = ns; return *this; }
    MachineConfig &withSeed(std::uint64_t s) { seed = s; return *this; }

    /** Disable every observer: the bare-interpreter configuration. */
    MachineConfig &withoutObservers()
    {
        collectStats = false;
        trackPartitions = false;
        recordTrace = false;
        return *this;
    }
    /// @}
};

} // namespace ximd

#endif // XIMD_CORE_MACHINE_CONFIG_HH

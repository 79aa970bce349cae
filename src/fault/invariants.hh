/**
 * @file
 * InvariantChecker: simulation-wide sanity monitor.
 *
 * Registered as the scheduler observer and as a periodic sweep, it
 * asserts the properties every healthy run - faulty or not - must
 * keep:
 *
 *  - at least one little core stays online (the Exynos 5422 boot
 *    rule, while the platform enforces it);
 *  - every cluster's effective frequency is an OPP-table entry and
 *    respects the thermal/administrative ceiling;
 *  - run queues and task states agree: a running/queued task sits on
 *    exactly one online core and that core's runner knows it, pending
 *    work is never negative;
 *  - simulated time is monotonic;
 *  - power and energy are non-negative and busy time never exceeds
 *    online time.
 *
 * A violation is recorded and warned about, never fatal: the checker
 * is the measurement instrument of the fault-injection subsystem, so
 * it must survive the very states it reports.
 */

#ifndef BIGLITTLE_FAULT_INVARIANTS_HH
#define BIGLITTLE_FAULT_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "platform/power.hh"
#include "sched/sched_observer.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class AsymmetricPlatform;
class HmpScheduler;

/** Tuning of the invariant sweep. */
struct InvariantParams
{
    /** Period of the full-sweep check. */
    Tick checkPeriod = msToTicks(5);

    /** Violations kept with full text (all are always counted). */
    std::size_t maxRecorded = 32;
};

/** One recorded invariant violation. */
struct InvariantViolation
{
    Tick when = 0;
    std::string what;
};

/** Periodic + observer-driven checker of simulation invariants. */
class InvariantChecker : public SchedObserver
{
  public:
    /**
     * @param sched may be null (platform-only checking)
     * @param power may be null (skips energy invariants)
     */
    InvariantChecker(Simulation &sim, AsymmetricPlatform &platform,
                     HmpScheduler *sched, PowerModel *power,
                     const InvariantParams &params = {});

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** Begin the periodic sweep. */
    void start();

    /** Stop the periodic sweep (observer hooks stay live). */
    void stop();

    /**
     * Run a full sweep now.  Returns ok() when every invariant
     * holds, otherwise internalError() with the first violation.
     */
    [[nodiscard]] Status checkNow();

    /**
     * Record a violation detected outside the checker's own sweeps
     * (the fault injector's invariant-break class reports through
     * here).  Counts and records like any sweep finding and marks
     * the last-sweep status failed so pollers see it.
     */
    void reportExternal(std::string what);

    /** Completed sweeps. */
    std::uint64_t checks() const { return checkCount; }

    /** Total violations detected (recorded or not). */
    std::uint64_t violationCount() const { return violationTotal; }

    /**
     * Outcome of the most recent periodic sweep: ok() while the
     * simulation is healthy, otherwise the last sweep's violation
     * summary.  Lets callers poll sweep health without rescanning.
     */
    const Status &lastSweepStatus() const { return lastSweep; }

    /** First maxRecorded violations, in detection order. */
    const std::vector<InvariantViolation> &violations() const
    {
        return recorded;
    }

    // ---- SchedObserver ----
    void onWakeup(const Task &task, const Core &target) override;
    void onSleep(const Task &task) override;
    void onMigrate(const Task &task, const Core &from,
                   const Core &to, bool up) override;
    void onBalance(const Task &task, const Core &from,
                   const Core &to) override;

  private:
    Simulation &sim;
    AsymmetricPlatform &plat;
    HmpScheduler *sched;
    PowerModel *power;
    InvariantParams ip;

    PeriodicTask *sweepTask = nullptr;

    Tick lastNow = 0;
    bool haveEnergyBase = false;
    PowerSnapshot energyBase;

    std::uint64_t checkCount = 0;
    std::uint64_t violationTotal = 0;
    std::vector<InvariantViolation> recorded;
    Status lastSweep;

    /** Count + record + warn about one violation. */
    void violate(std::string what);

    void checkTopology();
    void checkFrequencies();
    void checkRunqueues();
    void checkTime();
    void checkEnergy();

    /** Placement targets must be online cores. */
    void checkPlacement(const Task &task, const Core &target,
                        const char *event);
};

} // namespace biglittle

#endif // BIGLITTLE_FAULT_INVARIANTS_HH

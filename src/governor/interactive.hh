/**
 * @file
 * InteractiveGovernor: the Android `interactive` cpufreq governor the
 * paper studies (Algorithm 2).
 *
 * Every sampling period the governor measures the cluster's busy
 * fraction and sizes the next frequency so the load would sit at
 * `targetLoad` percent of capacity; a load above `goHispeedLoad`
 * jumps straight to a preset hispeed frequency to protect
 * interactivity.
 */

#ifndef BIGLITTLE_GOVERNOR_INTERACTIVE_HH
#define BIGLITTLE_GOVERNOR_INTERACTIVE_HH

#include "governor/governor.hh"

namespace biglittle
{

/** Tunables of the interactive governor. */
struct InteractiveParams
{
    /** Utilization sampling period (20 ms on the target platform). */
    Tick samplingRate = msToTicks(20);

    /** Percent utilization the chosen frequency should yield. */
    double targetLoad = 70.0;

    /**
     * Percent utilization that triggers the jump to hispeedFreq;
     * tracks targetLoad in the paper's "high/low target load"
     * configurations.
     */
    double goHispeedLoad = 85.0;

    /**
     * Hispeed frequency as a fraction of the domain maximum; the
     * governor resolves it to the nearest OPP at startup.
     */
    double hispeedFraction = 0.75;

    std::string name = "interactive";
};

/** Section VI-C configuration: default (20 ms, target 70). */
InteractiveParams defaultInteractiveParams();

/** Section VI-C configuration: 60 ms sampling interval. */
InteractiveParams interval60Params();

/** Section VI-C configuration: 100 ms sampling interval. */
InteractiveParams interval100Params();

/** Section VI-C configuration: high (80) target load. */
InteractiveParams highTargetLoadParams();

/** Section VI-C configuration: low (60) target load. */
InteractiveParams lowTargetLoadParams();

/** Algorithm 2: the load-tracking interactive governor. */
class InteractiveGovernor : public Governor
{
  public:
    InteractiveGovernor(Simulation &sim, Cluster &cluster,
                        const InteractiveParams &params);

    Tick samplingPeriod() const override;

    const InteractiveParams &params() const { return ip; }

    /** Resolved hispeed frequency. */
    FreqKHz hispeedFreq() const { return hispeed; }

    /** Times the hispeed jump fired. */
    std::uint64_t hispeedJumps() const { return jumps; }

  protected:
    void sample(Tick now) override;
    void serializePolicy(Serializer &s) const override;

  private:
    InteractiveParams ip;
    // ablint:allow(serialize-coverage): derived from InteractiveParams at construction
    FreqKHz hispeed;
    std::uint64_t jumps = 0;
};

} // namespace biglittle

#endif // BIGLITTLE_GOVERNOR_INTERACTIVE_HH

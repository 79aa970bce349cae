/**
 * @file
 * Governor: base class for per-cluster DVFS policies.
 *
 * A governor samples its cluster's CPU utilization on a fixed period
 * and requests a new frequency from the cluster's domain.  Like the
 * Linux cpufreq core, the utilization of a multi-core policy is the
 * maximum of the per-core busy fractions over the elapsed window (the
 * busiest CPU must not be starved).
 */

#ifndef BIGLITTLE_GOVERNOR_GOVERNOR_HH
#define BIGLITTLE_GOVERNOR_GOVERNOR_HH

#include <string>
#include <vector>

#include "base/types.hh"
#include "platform/cluster.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Serializer;

/** Base class for cluster frequency governors. */
class Governor
{
  public:
    Governor(Simulation &sim, Cluster &cluster, std::string name);

    virtual ~Governor() = default;

    Governor(const Governor &) = delete;
    Governor &operator=(const Governor &) = delete;

    const std::string &name() const { return governorName; }
    Cluster &cluster() { return clusterRef; }

    /** Sampling period of this policy. */
    virtual Tick samplingPeriod() const = 0;

    /** Apply the policy's initial frequency and begin sampling. */
    void start();

    /** Stop sampling (frequency stays where it is). */
    void stop();

    /** Number of samples taken. */
    std::uint64_t samples() const { return sampleCount; }

    /**
     * Requests the domain refused (fault injection).  The policy
     * simply holds its current - still valid - OPP and retries on
     * the next sample, the way cpufreq treats a -EBUSY regulator.
     */
    std::uint64_t deniedRequests() const { return deniedCount; }

    /**
     * Write the sampling bookkeeping plus any policy-specific state
     * (via the serializePolicy hook).
     */
    void serialize(Serializer &s) const;

  protected:
    /** Policy hook: append subclass state (default: nothing). */
    virtual void serializePolicy(Serializer &s) const;

    /** Frequency to apply when the governor starts. */
    virtual FreqKHz initialFreq() const;

    /** Policy hook: look at utilization, request a frequency. */
    virtual void sample(Tick now) = 0;

    /**
     * Max per-core busy fraction over the window since the last call
     * (first call measures from governor start).  In [0, 1].
     */
    double clusterUtilization();

    /**
     * Ask the domain for @p target, absorbing a fault-gate denial:
     * the governor stays at the current OPP, counts the refusal, and
     * retries naturally on its next sampling period.
     */
    void request(FreqKHz target);

    Simulation &sim;
    Cluster &clusterRef;

  private:
    // ablint:allow(serialize-coverage): fixed at construction from config
    std::string governorName;
    // ablint:allow(serialize-coverage): derived from names in start()
    std::string policyCell; ///< "<cluster>.<governor>", abrace component
    PeriodicTask *samplerTask = nullptr;
    std::uint64_t sampleCount = 0;
    std::uint64_t deniedCount = 0;

    Tick lastSampleTick = 0;
    std::vector<Tick> lastBusyTicks;

    void onSample(Tick now);
};

} // namespace biglittle

#endif // BIGLITTLE_GOVERNOR_GOVERNOR_HH

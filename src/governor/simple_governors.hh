/**
 * @file
 * Reference governors used as baselines and in tests:
 *
 *  - PerformanceGovernor: pins the domain at its maximum frequency.
 *  - PowersaveGovernor:   pins the domain at its minimum frequency.
 *  - UserspaceGovernor:   holds whatever frequency the caller sets
 *                         (used by the Fig. 2/3/6 fixed-frequency
 *                         experiments).
 *  - OndemandGovernor:    the classic Linux ondemand policy - jump to
 *                         max above a utilization threshold,
 *                         proportional scaling below it.
 */

#ifndef BIGLITTLE_GOVERNOR_SIMPLE_GOVERNORS_HH
#define BIGLITTLE_GOVERNOR_SIMPLE_GOVERNORS_HH

#include "governor/governor.hh"

namespace biglittle
{

/** Pins the cluster at maximum frequency. */
class PerformanceGovernor : public Governor
{
  public:
    PerformanceGovernor(Simulation &sim, Cluster &cluster);

    Tick samplingPeriod() const override { return msToTicks(100); }

  protected:
    FreqKHz initialFreq() const override;
    void sample(Tick now) override;
};

/** Pins the cluster at minimum frequency. */
class PowersaveGovernor : public Governor
{
  public:
    PowersaveGovernor(Simulation &sim, Cluster &cluster);

    Tick samplingPeriod() const override { return msToTicks(100); }

  protected:
    void sample(Tick now) override;
};

/** Holds a caller-chosen fixed frequency. */
class UserspaceGovernor : public Governor
{
  public:
    /** @param freq initial fixed frequency. */
    UserspaceGovernor(Simulation &sim, Cluster &cluster, FreqKHz freq);

    Tick samplingPeriod() const override { return msToTicks(100); }

    /** Change the held frequency (applies immediately). */
    void setFreq(FreqKHz freq);

    FreqKHz freq() const { return heldFreq; }

  protected:
    FreqKHz initialFreq() const override { return heldFreq; }
    void sample(Tick now) override;
    void serializePolicy(Serializer &s) const override;

  private:
    FreqKHz heldFreq;
};

/** Tunables for the ondemand policy. */
struct OndemandParams
{
    Tick samplingRate = msToTicks(20);
    double upThreshold = 80.0; ///< percent; above this, jump to max
    double scalingMargin = 60.0; ///< divisor for proportional mode
};

/** The classic ondemand policy. */
class OndemandGovernor : public Governor
{
  public:
    OndemandGovernor(Simulation &sim, Cluster &cluster,
                     const OndemandParams &params = OndemandParams{});

    Tick samplingPeriod() const override { return op.samplingRate; }

    const OndemandParams &params() const { return op; }

  protected:
    void sample(Tick now) override;

  private:
    OndemandParams op;
};

/** Tunables for the conservative policy. */
struct ConservativeParams
{
    Tick samplingRate = msToTicks(20);
    double upThreshold = 80.0; ///< step up above this load
    double downThreshold = 20.0; ///< step down below this load
    double freqStepFraction = 0.05; ///< step size, fraction of max
};

/**
 * The Linux `conservative` policy: like ondemand, but the frequency
 * moves in small steps instead of jumping, which suits battery-bound
 * devices with smooth loads.
 */
class ConservativeGovernor : public Governor
{
  public:
    ConservativeGovernor(
        Simulation &sim, Cluster &cluster,
        const ConservativeParams &params = ConservativeParams{});

    Tick samplingPeriod() const override { return cp.samplingRate; }

    const ConservativeParams &params() const { return cp; }

  protected:
    void sample(Tick now) override;

  private:
    ConservativeParams cp;
    FreqKHz step;
};

/** Tunables for the schedutil-style policy. */
struct SchedutilParams
{
    Tick samplingRate = msToTicks(10);
    double margin = 1.25; ///< next_freq = margin * max * util
};

/**
 * A schedutil-style policy: sizes the frequency directly from the
 * utilization against the maximum capacity (next_f = 1.25 * f_max *
 * util), the design that replaced interactive/ondemand in mainline
 * Linux.  Included as a modern baseline the paper predates.
 */
class SchedutilGovernor : public Governor
{
  public:
    SchedutilGovernor(Simulation &sim, Cluster &cluster,
                      const SchedutilParams &params = SchedutilParams{});

    Tick samplingPeriod() const override { return sp.samplingRate; }

    const SchedutilParams &params() const { return sp; }

  protected:
    void sample(Tick now) override;

  private:
    SchedutilParams sp;
};

} // namespace biglittle

#endif // BIGLITTLE_GOVERNOR_SIMPLE_GOVERNORS_HH

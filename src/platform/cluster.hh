/**
 * @file
 * Cluster: a set of identical cores sharing an L2 and a frequency
 * domain, with cluster-level static-energy accounting (the shared L2
 * and interconnect leak whenever the cluster is powered).
 */

#ifndef BIGLITTLE_PLATFORM_CLUSTER_HH
#define BIGLITTLE_PLATFORM_CLUSTER_HH

#include <memory>
#include <vector>

#include "base/types.hh"
#include "platform/cache.hh"
#include "platform/core.hh"
#include "platform/freq_domain.hh"
#include "platform/params.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Serializer;

/** A homogeneous group of cores with shared L2 and clock. */
class Cluster
{
  public:
    /**
     * @param sim simulation context
     * @param params cluster description
     * @param first_id platform-wide id of this cluster's core 0
     * @param dvfs_latency frequency-transition latency for the domain
     */
    Cluster(Simulation &sim, const ClusterParams &params, CoreId first_id,
            Tick dvfs_latency, bool cpuidle_enabled = true);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const std::string &name() const { return clusterParams.name; }
    CoreType type() const { return clusterParams.type; }
    const ClusterParams &params() const { return clusterParams; }

    FreqDomain &freqDomain() { return domain; }
    const FreqDomain &freqDomain() const { return domain; }

    const CacheModel &l2() const { return l2Model; }

    std::size_t coreCount() const { return coreList.size(); }
    Core &core(std::size_t i) { return *coreList.at(i); }
    const Core &core(std::size_t i) const { return *coreList.at(i); }

    /** Number of cores currently online. */
    std::size_t onlineCount() const;

    /** Number of cores currently busy. */
    std::size_t busyCount() const;

    /** Close cluster + core accounting intervals at the current time. */
    void sync();

    /** Called by a member core just before its state flips. */
    void preCoreStateChange();

    /** Integral of V over seconds with >=1 busy core. */
    double activeWeight() const { return activeW; }

    /** Integral of V over seconds powered but fully idle. */
    double idleWeight() const { return idleW; }

    /** Whether idle cores use the two-state cpuidle model. */
    bool cpuidleEnabled() const { return cpuidle; }

    /**
     * Write the cluster's accounting state, each member core, and
     * the frequency domain.  Call sync() first so every accounting
     * interval is closed at the current tick.
     */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    ClusterParams clusterParams;
    // ablint:allow(serialize-coverage): stateless perf model built from ClusterParams
    CacheModel l2Model;
    FreqDomain domain;
    std::vector<std::unique_ptr<Core>> coreList;
    Tick lastUpdate = 0;
    // ablint:allow(serialize-coverage): construction-time config
    bool cpuidle;

    double activeW = 0.0;
    double idleW = 0.0;

    void accountTo(Tick now);
};

} // namespace biglittle

#endif // BIGLITTLE_PLATFORM_CLUSTER_HH

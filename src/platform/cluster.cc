#include "platform/cluster.hh"

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

namespace biglittle
{

Cluster::Cluster(Simulation &sim_in, const ClusterParams &params,
                 CoreId first_id, Tick dvfs_latency,
                 bool cpuidle_enabled)
    : sim(sim_in), clusterParams(params), l2Model(params.l2),
      domain(sim_in, params.name, params.opps, dvfs_latency),
      lastUpdate(sim_in.now()), cpuidle(cpuidle_enabled)
{
    BL_ASSERT(clusterParams.coreCount > 0);
    for (std::uint32_t i = 0; i < clusterParams.coreCount; ++i) {
        coreList.push_back(std::make_unique<Core>(
            sim, first_id + i, clusterParams.type, clusterParams.perf,
            domain, *this,
            format("%s.cpu%u", clusterParams.name.c_str(),
                   first_id + i)));
    }
    domain.addListener([this](const Opp &, const Opp &) {
        // Close every accounting interval at the old OPP before the
        // new one becomes visible.
        accountTo(sim.now());
        for (auto &c : coreList)
            c->preFreqChange();
    });
}

std::size_t
Cluster::onlineCount() const
{
    std::size_t n = 0;
    for (const auto &c : coreList)
        n += c->online() ? 1 : 0;
    return n;
}

std::size_t
Cluster::busyCount() const
{
    std::size_t n = 0;
    for (const auto &c : coreList)
        n += c->busy() ? 1 : 0;
    return n;
}

void
Cluster::accountTo(Tick now)
{
    BL_ASSERT(now >= lastUpdate);
    const Tick dt = now - lastUpdate;
    lastUpdate = now;
    if (dt == 0)
        return;
    if (onlineCount() == 0)
        return; // fully power-gated cluster
    const double dt_sec = ticksToSeconds(dt);
    const double volts = domain.currentVolts();
    if (busyCount() > 0)
        activeW += dt_sec * volts;
    else
        idleW += dt_sec * volts;
}

void
Cluster::sync()
{
    accountTo(sim.now());
    for (auto &c : coreList)
        c->sync();
}

void
Cluster::preCoreStateChange()
{
    accountTo(sim.now());
}

void
Cluster::serialize(Serializer &s) const
{
    s.putU64(lastUpdate);
    s.putDouble(activeW);
    s.putDouble(idleW);
    for (const auto &c : coreList)
        c->serialize(s);
    domain.serialize(s);
}

} // namespace biglittle

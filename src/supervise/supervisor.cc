#include "supervise/supervisor.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"

namespace biglittle
{

namespace
{

/**
 * Rollback-retries granted per incident signature before the
 * supervisor escalates to quarantining the implicated component.
 */
constexpr std::uint32_t perIncidentRetries = 2;

/**
 * Rollback-retries across the whole run; when spent, the next
 * failure quarantines immediately, and once nothing is left to
 * quarantine the run is declared failed.
 */
constexpr std::uint32_t totalRetryBudget = 8;

/**
 * Attempt cap, first run included: the retry budget plus one
 * quarantine and one disable rung per fault class is enough headroom
 * for any escalation the ladder can take.
 */
constexpr std::uint32_t maxAttempts =
    totalRetryBudget + 2 * faultClassCount + 2;

/**
 * Escalation rung an incident signature sits on.  Every incident
 * climbs retrying -> quarantined -> disabled; a failure recurring on
 * the last rung exhausts the ladder and the run is declared failed.
 */
enum class Rung
{
    retrying,
    quarantined,
    disabled,
};

struct IncidentState
{
    std::uint32_t retries = 0;
    Rung rung = Rung::retrying;
};

} // namespace

std::uint64_t
finalStateDigest(const AppRunResult &result)
{
    std::ostringstream os;
    for (const auto &[name, digest] : result.stateDigests)
        os << name << ":" << std::hex << digest << "\n";
    return fnv1a64(os.str());
}

Supervisor::Supervisor(ExperimentConfig config)
    : baseCfg(std::move(config))
{
}

SupervisedRunResult
Supervisor::run(const AppSpec &app)
{
    ExperimentConfig cfg = baseCfg;
    cfg.recovery.supervised = true;

    SupervisedRunResult out;
    RecoveryReport &report = out.report;

    // Good checkpoints of every attempt by tick: the rollback
    // targets.  A later attempt's checkpoint replaces an earlier one
    // at the same tick, so each target matches the current script.
    std::map<Tick, Checkpoint> ckpts;
    std::map<std::string, IncidentState> incidents;
    std::uint32_t total_retries = 0;
    std::uint32_t perturb = 0;

    for (std::uint32_t attempt = 1;; ++attempt) {
        report.attempts = attempt;
        Experiment exp(cfg);
        AppRunResult r = exp.runApp(app);

        for (Checkpoint &c : std::exchange(r.checkpoints.kept, {})) {
            const Tick tick = c.tick;
            ckpts.insert_or_assign(tick, std::move(c));
        }

        if (!r.failed) {
            report.outcome = report.quarantines > 0
                ? RecoveryOutcome::degraded
                : (report.attempts > 1 ? RecoveryOutcome::recovered
                                       : RecoveryOutcome::clean);
            report.finalStateDigest = finalStateDigest(r);
            out.run = std::move(r);
            if (report.outcome != RecoveryOutcome::clean)
                inform("supervisor: %s", report.toString().c_str());
            return out;
        }

        RecoveryEvent ev;
        ev.attempt = attempt;
        ev.trigger = r.failureTrigger;
        ev.incident = r.failureIncident;
        ev.failedAt = r.failedAt;

        IncidentState &inc = incidents[r.failureIncident];

        // Gives up on the run.  Logs before r moves into the result.
        const auto fail = [&](const std::string &why) {
            report.events.push_back(std::move(ev));
            report.outcome = RecoveryOutcome::failed;
            report.finalStateDigest = finalStateDigest(r);
            warn("supervisor: %s\n%s", why.c_str(),
                 report.toString().c_str());
            out.run = std::move(r);
        };

        if (attempt >= maxAttempts) {
            fail(format("attempt cap (%u) reached", maxAttempts));
            return out;
        }

        // Rolls the next attempt back to the newest good checkpoint
        // strictly before the failure (the failure boundary never
        // takes one), @p offset checkpoints further back, clamped to
        // the oldest; a fresh start when there is none.  Returns the
        // rollback tick.
        const auto rollBack = [&](std::size_t offset) -> Tick {
            cfg.snapshot.resumePath.clear();
            cfg.recovery.rollback.reset();
            auto it = ckpts.lower_bound(r.failedAt);
            if (it == ckpts.begin())
                return 0;
            for (--it; offset > 0 && it != ckpts.begin(); --offset)
                --it;
            cfg.recovery.rollback = it->second;
            return it->first;
        };

        const bool budget_left = inc.retries < perIncidentRetries &&
            total_retries < totalRetryBudget;

        const auto addAction = [&](RecoveryAction act) {
            ev.actions.push_back(act);
            cfg.recovery.script.push_back(std::move(act));
        };

        if (inc.rung == Rung::retrying && budget_left) {
            // ---- rung 1: rollback-retry with perturbation ----
            ++inc.retries;
            ++total_retries;
            ++report.retries;
            // Retry k rolls back to the (2^k - 1)-th-newest good
            // checkpoint, so a persistently poisoned recent state
            // cannot trap the supervisor in a tight rollback loop.
            const std::uint32_t k = std::min(inc.retries, 16u);
            const Tick roll_tick = rollBack((std::size_t{1} << k) - 2);
            ev.rollbackTo = roll_tick;

            RecoveryAction act;
            act.atTick = roll_tick;
            act.kind = RecoveryActionKind::perturbFaultRng;
            act.arg = deriveStreamSeed(
                cfg.masterSeed, format("recover.rng.%u", perturb));
            act.detail = format("%s retry %u",
                                ev.incident.c_str(), inc.retries);
            addAction(std::move(act));
            if (r.failureTrigger == RecoveryTrigger::watchdogStall) {
                // A stall can be order-dependent: also permute the
                // same-tick service order of the retried attempt.
                RecoveryAction tie;
                tie.atTick = roll_tick;
                tie.kind = RecoveryActionKind::perturbTieBreak;
                tie.arg = deriveStreamSeed(
                    cfg.masterSeed, format("recover.tie.%u", perturb));
                tie.detail = format("%s retry %u",
                                    ev.incident.c_str(), inc.retries);
                addAction(std::move(tie));
            }
            ++perturb;
            inform("supervisor: retry %u/%u for [%s], rollback to "
                   "tick %llu",
                   inc.retries, perIncidentRetries,
                   ev.incident.c_str(),
                   static_cast<unsigned long long>(roll_tick));
        } else if (inc.rung == Rung::retrying ||
                   inc.rung == Rung::quarantined) {
            // ---- rungs 2/3: quarantine, then disable the class ----
            const Tick roll_tick = rollBack(0);
            ev.rollbackTo = roll_tick;

            const bool first_escalation = inc.rung == Rung::retrying;
            bool gave_up = false;
            RecoveryAction act;
            act.atTick = roll_tick;
            act.detail = format("%s escalation", ev.incident.c_str());
            switch (r.failureTrigger) {
              case RecoveryTrigger::fatalFault:
                if (first_escalation &&
                    r.failureCore != invalidCoreId) {
                    // Hotplug the faulty core out for good.  If the
                    // platform refuses (boot core), the incident
                    // recurs and the next rung disables the class.
                    act.kind = RecoveryActionKind::quarantineCore;
                    act.arg = r.failureCore;
                } else {
                    act.kind = RecoveryActionKind::disableFaultClass;
                    act.arg = static_cast<std::uint64_t>(
                        FaultClass::crash);
                }
                break;
              case RecoveryTrigger::invariantViolation:
                if (first_escalation) {
                    act.kind = RecoveryActionKind::disableFaultClass;
                    act.arg = static_cast<std::uint64_t>(
                        FaultClass::invariantBreak);
                } else {
                    gave_up = true;
                }
                break;
              case RecoveryTrigger::watchdogStall:
                if (first_escalation) {
                    act.kind = RecoveryActionKind::disableFaultClass;
                    act.arg = static_cast<std::uint64_t>(
                        FaultClass::taskStall);
                } else {
                    gave_up = true;
                }
                break;
              case RecoveryTrigger::resumeDivergence:
                // No component to quarantine: restart from scratch
                // (the script still replays, so earlier decisions
                // hold).  A fresh run cannot re-diverge; recurrence
                // means something else is broken.
                if (first_escalation) {
                    ev.rollbackTo = 0;
                    cfg.recovery.rollback.reset();
                } else {
                    gave_up = true;
                }
                break;
              case RecoveryTrigger::none:
                gave_up = true;
                break;
            }
            if (gave_up) {
                fail(format("escalation ladder exhausted for [%s]",
                            r.failureIncident.c_str()));
                return out;
            }
            if (r.failureTrigger != RecoveryTrigger::resumeDivergence)
                addAction(std::move(act));
            ++report.quarantines;
            inc.rung = first_escalation ? Rung::quarantined
                                        : Rung::disabled;
            inform("supervisor: quarantine for [%s], rollback to "
                   "tick %llu",
                   ev.incident.c_str(),
                   static_cast<unsigned long long>(ev.rollbackTo));
        } else {
            // Still failing after the last rung: give up, degraded
            // state and all.
            fail(format("[%s] still failing after disable",
                        r.failureIncident.c_str()));
            return out;
        }
        report.events.push_back(std::move(ev));
    }
}

} // namespace biglittle

"""Per-layer tracing of one in-process experiment, from outside the program.

``install`` wraps the public functions of each amala module (and the CLI's
private writers, which are its layer boundary) where their callers look
them up, runs nothing itself, and returns an undo function. Every wrapped
call becomes a span named ``<module>.<function>``; spans carry the
``(workload, sampler, chain)`` id of the chain being sampled, reported or
written. Per-call spans are aggregated in memory by (span, parent, id,
phase) into call counts, inclusive time and self time (inclusive time minus
the time of wrapped calls inside it); coarse spans (chains, reports, file
writes) are also kept one by one. Both are written out after the run.

Exact counts are taken from outside too: the RNG draw count is each chain
stream's final counter, and accepts, auto-rejects, HMC divergences and
zero-density evaluations are read off the wrapped calls' arguments and
results, so no individual draw is wrapped.
"""

import re
import time
from collections import defaultdict

MODULES = ("rng", "targets", "adaptation", "samplers", "diagnostics", "cli")
COARSE = {
    "cli.compare_samplers",
    "samplers.run_chain",
    "diagnostics.build_report",
    "diagnostics.empirical_fisher",
    "cli._write_chain_csv",
    "cli._write_acf_csv",
    "cli._write_grid_csv",
}
_STEM = re.compile(r"^([A-Za-z0-9]+)_chain(\d+)")


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.stack = []  # open frames: [module, span name, child ns]
        self.stats = {}  # (span, parent, sampler, chain, phase) -> [calls, incl ns, self ns]
        self.spans = []  # coarse spans, in completion order
        self.counts = defaultdict(int)  # (counter, sampler) -> exact count
        self.streams = []  # (sampler, chain, RngStream) of every chain
        self.sampler = None
        self.chain = None
        self.phase = "setup"
        self.origin = time.perf_counter_ns()

    def set_id(self, sampler, chain):
        self.sampler, self.chain = sampler, chain

    def set_id_from_name(self, name: str):
        m = _STEM.match(name)
        if m:
            self.set_id(m.group(1), int(m.group(2)))
        else:
            self.set_id(None, None)

    def wrap(self, module: str, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span ``module.name``."""
        span = f"{module}.{name}"
        stack, stats, coarse = self.stack, self.stats, span in COARSE
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [module, span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][2] += dt
                key = (span, parent, self.sampler, self.chain, self.phase)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[2]
                if coarse:
                    self.spans.append(
                        {
                            "name": span,
                            "id": [self.workload, self.sampler, self.chain],
                            "parent": parent,
                            "start_s": (t0 - self.origin) * 1e-9,
                            "end_s": (t1 - self.origin) * 1e-9,
                        }
                    )
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def _sum(self, field: int, span=None, module=None, parent_not=None, sampler=None, phase=None):
        total = 0
        for (name, parent, smp, _chain, ph), st in self.stats.items():
            if span is not None and name != span:
                continue
            if module is not None and not name.startswith(module + "."):
                continue
            if parent_not is not None and parent == parent_not:
                continue
            if sampler is not None and smp != sampler:
                continue
            if phase is not None and ph != phase:
                continue
            total += st[field]
        return total

    def calls(self, span, **kw) -> int:
        return self._sum(0, span=span, **kw)

    def incl_s(self, span, **kw) -> float:
        return self._sum(1, span=span, **kw) * 1e-9

    def self_s(self, module: str) -> float:
        return self._sum(2, module=module) * 1e-9

    def exact_counts(self, samplers) -> dict:
        """Every count the traced run takes; two runs of one seed must agree."""
        out = {"rng.draws": sum(s.counter for _, _, s in self.streams)}
        for smp in samplers:
            out[f"rng.draws.{smp}"] = sum(s.counter for name, _, s in self.streams if name == smp)
            out[f"samplers.steps.{smp}"] = self.calls("samplers.step", sampler=smp)
            for kind in ("log_density", "grad"):
                out[f"targets.{kind}.sample_calls.{smp}"] = self.calls(
                    f"targets.{kind}", sampler=smp, phase="sample"
                )
        for kind in ("log_density", "grad"):
            out[f"targets.{kind}.calls"] = self.calls(f"targets.{kind}")
        out["adaptation.sigma_update.calls"] = self.calls("adaptation.sigma_update")
        out["samplers.steps"] = self.calls("samplers.step")
        for (counter, smp), value in self.counts.items():
            out[counter if smp is None else f"{counter}.{smp}"] = value
        return dict(sorted(out.items()))

    def dump(self) -> dict:
        return {
            "workload": self.workload,
            "spans": self.spans,
            "aggregates": [
                {
                    "name": name,
                    "parent": parent,
                    "id": [self.workload, smp, chain],
                    "phase": phase,
                    "calls": st[0],
                    "incl_s": st[1] * 1e-9,
                    "self_s": st[2] * 1e-9,
                }
                for (name, parent, smp, chain, phase), st in self.stats.items()
            ],
        }


def install(tr: Tracer, amala) -> callable:
    """Wrap amala's layer boundaries for ``tr``; returns the undo function."""
    cli, samplers, diagnostics = amala.cli, amala.samplers, amala.diagnostics
    RngStream = amala.rng.RngStream
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def count(counter, flag):
        def hook(args, result):
            if flag(args, result):
                tr.counts[(counter, tr.sampler)] += 1

        return hook

    def with_id(fn, pick):
        def set_then_call(*args, **kwargs):
            pick(args)
            return fn(*args, **kwargs)

        return set_then_call

    # rng: time the two entry points the samplers call; draws made inside
    # normals() reach next_uniform() again and are not re-wrapped
    timed_uniform = tr.wrap("rng", "next_uniform", RngStream.next_uniform)
    plain_uniform = RngStream.next_uniform
    stack = tr.stack

    def next_uniform(stream):
        if stack and stack[-1][0] == "rng":
            return plain_uniform(stream)
        return timed_uniform(stream)

    patch(RngStream, "normals", tr.wrap("rng", "normals", RngStream.normals))
    patch(RngStream, "next_uniform", next_uniform)
    split = samplers.split

    def captured_split(seed, chain_id):
        stream = split(seed, chain_id)
        tr.streams.append((tr.sampler, tr.chain, stream))
        return stream

    patch(samplers, "split", captured_split)

    # targets
    neg_inf = amala.targets.NEG_INF
    zero = count("targets.zero_density", lambda args, result: result == neg_inf)
    for cls in (amala.targets.ParticleBox2D, amala.targets.GaussianMixture):
        patch(cls, "log_density", tr.wrap("targets", "log_density", cls.log_density, zero))
        patch(cls, "grad_log_density", tr.wrap("targets", "grad", cls.grad_log_density))
    box = amala.targets.ParticleBox2D
    patch(box, "analytic_grid", tr.wrap("targets", "analytic_grid", box.analytic_grid))
    patch(cli, "make_target", tr.wrap("targets", "make_target", cli.make_target))

    # adaptation
    patch(samplers, "sigma_update", tr.wrap("adaptation", "sigma_update", samplers.sigma_update))

    # samplers
    run_chain = tr.wrap("samplers", "run_chain", samplers.run_chain)

    def traced_run_chain(sampler_cfg, target, n, burn_in, init, seed, chain_id):
        tr.set_id(dict(sampler_cfg)["name"], chain_id)
        tr.phase = "sample"
        try:
            return run_chain(sampler_cfg, target, n, burn_in, init, seed, chain_id)
        finally:
            tr.phase = "post"

    patch(cli, "run_chain", traced_run_chain)
    accepted = count("samplers.accepts", lambda args, result: result[1])
    for cls in (samplers.MalaSampler, samplers.AdaptiveSampler, samplers.HmcSampler):
        patch(cls, "step", tr.wrap("samplers", "step", cls.step, accepted))
    auto = count("samplers.auto_rejects", lambda args, result: args[1].auto_reject)
    patch(samplers, "mh_accept", tr.wrap("samplers", "mh_accept", samplers.mh_accept, auto))
    diverged = count("samplers.hmc_divergences", lambda args, result: result[2])
    patch(samplers, "leapfrog", tr.wrap("samplers", "leapfrog", samplers.leapfrog, diverged))

    # diagnostics
    def chain_id(args):
        tr.set_id(args[0].meta["sampler"], args[0].meta["chain_id"])

    build_report = tr.wrap("diagnostics", "build_report", cli.build_report)
    patch(cli, "build_report", with_id(build_report, chain_id))
    patch(cli, "histogram2d", tr.wrap("diagnostics", "histogram2d", cli.histogram2d))
    for name in ("autocorrelation", "ess", "histogram2d", "tv_distance", "mode_coverage", "empirical_fisher"):
        patch(diagnostics, name, tr.wrap("diagnostics", name, getattr(diagnostics, name)))

    # cli: artifact writers and hashing; ids come from the file names
    def path_id(args):
        tr.set_id_from_name(args[0].name)

    for name in ("_write_chain_csv", "_write_acf_csv", "_write_grid_csv", "_sha256"):
        patch(cli, name, with_id(tr.wrap("cli", name, getattr(cli, name)), path_id))
    patch(cli, "_write_text", tr.wrap("cli", "_write_text", cli._write_text))

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo


def layer_metrics(tr: Tracer, samplers) -> dict:
    """Per-layer numbers of one traced run (times in s unless named)."""
    c = tr.exact_counts(samplers)
    steps = c["samplers.steps"]
    evals = c["targets.log_density.calls"] + c["targets.grad.calls"]
    sample_evals = {
        s: c[f"targets.log_density.sample_calls.{s}"] + c[f"targets.grad.sample_calls.{s}"] for s in samplers
    }
    sigma_calls = c["adaptation.sigma_update.calls"]
    zero = sum(v for k, v in c.items() if k.startswith("targets.zero_density"))
    m = {f"{mod}.self_s": tr.self_s(mod) for mod in MODULES}
    m.update(
        {
            "rng.draws": c["rng.draws"],
            "rng.ns_per_draw": m["rng.self_s"] * 1e9 / c["rng.draws"],
            "targets.log_density.calls": c["targets.log_density.calls"],
            "targets.grad.calls": c["targets.grad.calls"],
            "targets.evals_per_step": sum(sample_evals.values()) / steps,
            "targets.us_per_eval": m["targets.self_s"] * 1e6 / evals,
            "targets.zero_density_frac": zero / c["targets.log_density.calls"],
            "adaptation.sigma_update.calls": sigma_calls,
            "adaptation.us_per_call": m["adaptation.self_s"] * 1e6 / sigma_calls,
            "samplers.steps": steps,
            "samplers.us_per_step": tr.incl_s("samplers.step") * 1e6 / steps,
            "diagnostics.report_s": tr.incl_s("diagnostics.build_report"),
            "diagnostics.fisher_s": tr.incl_s("diagnostics.empirical_fisher"),
            "diagnostics.acf_ess_s": tr.incl_s("diagnostics.ess")
            + tr.incl_s("diagnostics.autocorrelation", parent_not="diagnostics.ess"),
            "diagnostics.grid_s": sum(
                tr.incl_s(f"diagnostics.{n}") for n in ("histogram2d", "tv_distance", "mode_coverage")
            ),
            "cli.chain_csv_s": tr.incl_s("cli._write_chain_csv"),
            "cli.sha256_s": tr.incl_s("cli._sha256"),
        }
    )
    hmc_steps = 0
    for s in samplers:
        n = c[f"samplers.steps.{s}"]
        m[f"targets.evals_per_step.{s}"] = sample_evals[s] / n
        m[f"samplers.us_per_step.{s}"] = tr.incl_s("samplers.step", sampler=s) * 1e6 / n
        m[f"samplers.accept_frac.{s}"] = c.get(f"samplers.accepts.{s}", 0) / n
        if s != "hmc":
            m[f"samplers.auto_reject_frac.{s}"] = c.get(f"samplers.auto_rejects.{s}", 0) / n
        else:
            hmc_steps = n
    divergences = c.get("samplers.hmc_divergences.hmc", 0)
    m["samplers.hmc_diverged_frac"] = divergences / hmc_steps if hmc_steps else 0.0
    return m

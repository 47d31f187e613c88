"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a reference computed here
from first principles, or with a property the method must have; none compares
with a stored copy of an earlier output. Each returns a list of failure
messages, empty when the check passes.
"""

from __future__ import annotations

import math

import numpy as np

_BN_EPS = 1e-5      # batch/layer-norm epsilon of the method
_ZERO_ROW = 1e-12   # rows below this norm are defined to embed as zeros


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def reference_ap(sims_row, relevant):
    """Average precision of one query without sorting.

    The rank of gallery item j is one plus the number of items scored higher,
    plus the number scored equally with a lower index (ties go to the lower
    gallery index). AP is the mean over relevant items of the share of
    relevant items at or above that rank."""
    rel = np.flatnonzero(relevant)
    if rel.size == 0:
        raise ValueError("reference_ap: query has no relevant items")
    idx = np.arange(sims_row.size)
    ranks = np.array([1 + np.count_nonzero(sims_row > sims_row[j])
                      + np.count_nonzero((sims_row == sims_row[j]) & (idx < j)) for j in rel])
    ranks.sort()
    return float(np.mean(np.arange(1, rel.size + 1) / ranks))


def check_retrieval(z_a, z_v, labels, report, queries, tol=1e-12):
    """Per-query AP on the sampled ``queries`` in both directions equals the
    report's, and each direction's mAP is the mean of its per-query APs."""
    failures = []
    labels = np.asarray(labels)
    sims = z_a @ z_v.T
    for direction, s, aps, mean in (("a2v", sims, report.ap_a2v, report.map_a2v),
                                    ("v2a", sims.T, report.ap_v2a, report.map_v2a)):
        if len(aps) != labels.size:
            failures.append(f"{direction}: {len(aps)} per-query APs for {labels.size} queries")
            continue
        for q in queries:
            ref = reference_ap(s[q], labels == labels[q])
            if abs(ref - aps[q]) > tol:
                failures.append(f"{direction} query {q}: AP {aps[q]!r} vs reference {ref!r}")
        if abs(float(np.mean(aps)) - mean) > tol:
            failures.append(f"{direction}: mAP {mean!r} is not the mean of its per-query APs")
    if abs(report.map_avg - (report.map_a2v + report.map_v2a) / 2.0) > tol:
        failures.append(f"map_avg {report.map_avg!r} is not the mean of both directions")
    return failures


def check_unit_rows(z, name, tol=1e-12):
    norms = np.linalg.norm(np.asarray(z), axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    return [] if worst <= tol else [f"{name}: retrieval row norm off unit by {worst:.3e}"]


def check_margin(maps, baseline, chance):
    """Each seed's mAP beats chance and the baseline, and the mean's lead
    over each exceeds two standard errors measured across the seeds."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.size < 2:
        return [f"margin: needs at least 2 seeds, got {maps.size}"]
    margin = 2.0 * float(np.std(maps, ddof=1)) / math.sqrt(maps.size)
    failures = []
    for name, ref in (("chance", chance), ("linear CCA", baseline)):
        for i, m in enumerate(maps):
            if not m > ref:
                failures.append(f"seed {i}: mAP {m:.4f} does not beat {name} {ref:.4f}")
        if not maps.mean() - ref > margin:
            failures.append(f"mean mAP {maps.mean():.4f} leads {name} {ref:.4f} by less than "
                            f"two cross-seed standard errors ({margin:.4f})")
    return failures


# ---------------------------------------------------------------------------
# checkpoints and the appended CCA
# ---------------------------------------------------------------------------

def check_entries_roundtrip(saved, loaded):
    """Reloaded checkpoint entries are bit-identical to those written, in
    the same order."""
    if list(saved) != list(loaded):
        missing = [k for k in saved if k not in loaded]
        extra = [k for k in loaded if k not in saved]
        return [f"checkpoint names differ on reload (missing {missing[:3]}, extra {extra[:3]})"]
    failures = []
    for name, arr in saved.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        b = np.ascontiguousarray(loaded[name], dtype="<f8")
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            failures.append(f"checkpoint entry {name!r} differs on reload")
    return failures


def check_rho(rho):
    rho = np.asarray(rho, dtype=np.float64).reshape(-1)
    failures = []
    if rho.size == 0 or not np.all(np.isfinite(rho)):
        return [f"cca rho not finite: {rho}"]
    if np.any(np.diff(rho) > 0):
        failures.append(f"cca rho not descending: {rho}")
    if rho.min() < 0.0 or rho.max() > 1.0:
        failures.append(f"cca rho outside [0, 1]: {rho}")
    return failures


# ---------------------------------------------------------------------------
# a training step
# ---------------------------------------------------------------------------

def check_step_losses(values, total, epoch, warmup_epochs, r, sigmas=None):
    """Term ranges, and the total as the regime's combination of the terms.

    ``sigmas`` holds the log-variance weights in force during the step; it
    is needed only after warm-up."""
    rec, cca, infonce, dis = (values[k] for k in ("rec", "cca", "infonce", "dis"))
    failures = []
    for name in ("rec", "infonce", "dis"):
        if not values[name] >= 0.0:
            failures.append(f"{name} = {values[name]!r} is negative")
    if not dis <= 4.0:
        failures.append(f"dis = {dis!r} exceeds 4 (the bound for unit rows)")
    if not -r <= cca <= 0.0:
        failures.append(f"cca = {cca!r} outside [-{r}, 0]")
    if epoch <= warmup_epochs:
        terms = [rec, 0.1 * epoch * cca, 0.1 * dis, 0.05 * infonce]
    else:
        terms = []
        for name in ("rec", "cca", "infonce", "dis"):
            s = sigmas[name]
            terms += [math.exp(-s) * values[name], s]
    expected = math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    if not abs(total - expected) <= 1e-12 * max(1.0, scale):
        regime = "warm-up" if epoch <= warmup_epochs else "weighted"
        failures.append(f"{regime} total {total!r} vs combination of terms {expected!r}")
    return failures


def check_clipped(params, clip_norm):
    norm = math.sqrt(math.fsum(float(np.sum(p.grad * p.grad)) for p in params))
    return [] if norm <= clip_norm * (1.0 + 1e-9) else [f"gradient norm {norm:.6g} after clipping exceeds {clip_norm}"]


def check_finite(model, name):
    bad = [p.name for p in model.parameters() if not np.all(np.isfinite(p.value))]
    return [f"{name}: non-finite parameters {bad[:3]}"] if bad else []


def ema_sample(model, picks):
    """Values of ``model`` at ``picks``: (parameter name, flat indices) pairs."""
    return [model.params[name].value.reshape(-1)[idx].copy() for name, idx in picks]


def check_ema(before, student_after, teacher_after, rho, tol=1e-12):
    """theta_t = rho * theta_t-1 + (1 - rho) * theta on the sampled coordinates."""
    failures = []
    for prev, s, t in zip(before, student_after, teacher_after):
        worst = float(np.max(np.abs(t - (rho * prev + (1.0 - rho) * s))))
        if worst > tol:
            failures.append(f"teacher off the EMA recursion by {worst:.3e}")
    return failures


# ---------------------------------------------------------------------------
# eval-mode embeddings from checkpoint arrays
# ---------------------------------------------------------------------------

def _unit(z):
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return np.where(norms >= _ZERO_ROW, z / np.where(norms >= _ZERO_ROW, norms, 1.0), 0.0)


def _layer_norm(h, gamma, beta):
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    return gamma * (h - mu) / np.sqrt(var + _BN_EPS) + beta


def reference_retrieval_rows(e, audio, visual):
    """Retrieval rows of the method in eval mode, written out in numpy from
    the checkpoint arrays ``e``: per-modality encoder (linear, batch norm
    with running statistics on the first layer and layer norm after, tanh;
    dropout is the identity), one-token cross-modal fusion
    layernorm(h + h_other Wv Wo), linear projection with unit rows, then the
    appended CCA with unit rows."""
    h = {}
    for mod, x in (("a", audio), ("v", visual)):
        i = 0
        x = np.asarray(x, dtype=np.float64)
        while f"enc.{mod}.{i}.w" in e:
            x = x @ e[f"enc.{mod}.{i}.w"] + e[f"enc.{mod}.{i}.b"]
            if i == 0:
                p = f"enc.{mod}.0.bn"
                x = e[f"{p}.gamma"] * (x - e[f"{p}.mean"]) / np.sqrt(e[f"{p}.var"] + _BN_EPS) + e[f"{p}.beta"]
            else:
                x = _layer_norm(x, e[f"enc.{mod}.{i}.ln.gamma"], e[f"enc.{mod}.{i}.ln.beta"])
            x = np.tanh(x)
            i += 1
        h[mod] = x
    u = {}
    for mod, direction, other in (("a", "a2v", "v"), ("v", "v2a", "a")):
        f = f"fuse.{direction}"
        u[mod] = _layer_norm(h[mod] + (h[other] @ e[f"{f}.wv"]) @ e[f"{f}.wo"],
                             e[f"{f}.ln.gamma"], e[f"{f}.ln.beta"])
    z = {mod: _unit(u[mod] @ e[f"proj.{mod}.w"] + e[f"proj.{mod}.b"]) for mod in ("a", "v")}
    za = _unit((z["a"] - e["cca/mean_a"]) @ e["cca/A"])
    zv = _unit((z["v"] - e["cca/mean_v"]) @ e["cca/B"])
    return za, zv


def check_embeddings(entries, audio, visual, rows, z_a, z_v, tol=1e-9):
    ra, rv = reference_retrieval_rows(entries, audio[rows], visual[rows])
    failures = []
    for name, ref, got in (("audio", ra, z_a[rows]), ("visual", rv, z_v[rows])):
        worst = float(np.max(np.abs(ref - got)))
        if not worst <= tol:
            failures.append(f"{name} eval embeddings off the numpy reference by {worst:.3e}")
    return failures

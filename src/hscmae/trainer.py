"""Training orchestration for the dual-path loop.

Per step, in two phases that each back-propagate their own tape:
- the masked branch: mask plan -> masked student pass (reconstruction
  targets and contrastive embeddings) -> clean teacher pass (affinity
  mining, distillation targets) -> backward of its terms;
- the clean branch: clean student pass (canonical correlation; its inputs
  are constants, so it needs no input gradient gate) -> weighted total over
  every term -> backward into the clean tape and the sigma leaves;
then clip, AdamW, EMA update. After the last epoch a linear CCA is fitted
on the clean-path training embeddings.

Precision: the two taped student passes (masked and clean, forward and
backward through encoders, fusion, projectors and decoders) and the untaped
teacher pass run in float32 on the batch and on float32 weights that each
op rounds from the float64 master values as it reads them; no float32 copy
of the values outlives the op that reads it. Adam's moments are float32.
The master values and gradients, clipping, the AdamW and EMA arithmetic on
the values, the loss heads, the checkpoint and every evaluation stay
float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cca_linear, diffcore as dc
from .data_io import TrainView, batches
from .losses import (CcaConfig, LossBundle, dcca_loss, distill_loss, rec_loss, soft_infonce, total_loss,
                     weighted_terms)
from .masking import apply_value_mask, make_plan
from .model import (LOSS_NAMES, CheckpointError, ModelConfig, ModelParams, config_entries,
                    config_from_entries, decode, embed_arrays, encode, forward_embed, fuse,
                    project, read_index, save_entries)
from .optim import OptimConfig, adamw_step, clip_global_norm, cosine_lr
from .teacher import anneal_momentum, ema_update, mine_affinities


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    epochs: int = 100
    batch_size: int = 400
    mask_ratio: float = 0.2
    k: int = 5
    tau: float = 0.05
    warmup_epochs: int = 5
    use_rec: bool = True
    use_cca: bool = True
    use_infonce: bool = True
    use_dis: bool = True
    cca_r: int | None = None  # canonical directions; default proj_dim
    cca_eps = cca_linear.EPS  # a constant, not a field: the regularizer of every CCA
    cca_post_dim: int = 10
    seed: int = 0
    eval_every: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 2), ("k", 1), ("warmup_epochs", 0),
                          ("cca_post_dim", 1), ("seed", 0), ("eval_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not any(self.active_losses().values()):
            raise ValueError("all loss terms disabled; enable at least one")

    def cca_config(self):
        r = self.cca_r if self.cca_r is not None else self.model.proj_dim
        return CcaConfig(r=r, eps=self.cca_eps)

    def active_losses(self):
        return {"rec": self.use_rec, "cca": self.use_cca,
                "infonce": self.use_infonce, "dis": self.use_dis}


@dataclass
class EpochLog:
    epoch: int
    losses: dict          # name -> mean raw value over the epoch's steps
    weights: dict         # name -> effective weight at the last step
    total: float
    lr: float
    rho: float
    map_a2v: float | None = None
    map_v2a: float | None = None
    map_avg: float | None = None


@dataclass
class TrainResult:
    params: ModelParams
    teacher: ModelParams
    cca_model: cca_linear.LinearCcaModel
    logs: list


def _step_seed(seed, epoch, batch_index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(epoch, batch_index))
    return int(ss.generate_state(1)[0])


def masked_branch(mp, teacher, xa32, xv32, cfg, epoch, step_seed, rng, sigmas):
    """The masked student pass, the teacher pass with affinity mining and
    the reconstruction, contrastive and distillation terms, back-propagated
    before the call returns.

    The backward runs from ``weighted_terms``, which sends each active term
    the gradient the step's weighted total sends it; the sigma leaves get
    theirs from that total in ``clean_branch``. Returns a LossBundle of the
    spent terms as constants: the masked tape and its activations die with
    the call, before the clean pass allocates its own."""
    plan = make_plan(xa32.shape[0], cfg.model.d_audio, cfg.model.d_visual, cfg.mask_ratio, step_seed)
    bundle = LossBundle()
    xa_masked = dc.const(apply_value_mask(xa32, plan, "audio"))
    xv_masked = dc.const(apply_value_mask(xv32, plan, "visual"))
    ha, hv = encode(mp, xa_masked, xv_masked, train=True, rng=rng)
    ua, uv = fuse(mp, ha, hv)
    z_a, z_v = project(mp, ua, uv)
    if cfg.use_rec:
        xa_hat, xv_hat = decode(mp, ua, uv)
        bundle.rec = rec_loss(xa32, xv32, xa_hat, xv_hat)

    # teacher clean path (eval mode, float32, gradient-free)
    if cfg.use_infonce or cfg.use_dis:
        with dc.no_tape():
            zt_a, zt_v, _, _ = forward_embed(teacher, dc.const(xa32), dc.const(xv32), train=False)
        zt_a, zt_v = zt_a.value.astype(np.float64), zt_v.value.astype(np.float64)
        if cfg.use_infonce:
            targets = mine_affinities(zt_a, zt_v, k=cfg.k, tau=cfg.tau)
            bundle.infonce = soft_infonce(z_a, z_v, targets, cfg.tau)
        if cfg.use_dis:
            bundle.dis = distill_loss(z_a, z_v, zt_a, zt_v)

    dc.backward(weighted_terms(bundle, sigmas, epoch, cfg.warmup_epochs))
    return LossBundle(**{name: dc.const(term.value) for name, term in bundle.items() if term is not None})


def clean_branch(mp, xa32, xv32, cfg, epoch, rng, sigmas, bundle):
    """The clean student pass and its canonical-correlation term, added to
    ``bundle``, the spent terms of ``masked_branch``; then the weighted
    total over every term, back-propagated into the clean tape and the
    sigma leaves. Its inputs are constants, so it needs no input gradient
    gate. Returns (the bundle, effective weights, total node)."""
    if cfg.use_cca:
        z_a, z_v, _, _ = forward_embed(mp, dc.const(xa32), dc.const(xv32), train=True, rng=rng)
        bundle.cca = dcca_loss(z_a, z_v, cfg.cca_config())
    total, weights = total_loss(bundle, sigmas, epoch, cfg.warmup_epochs)
    dc.backward(total)
    return bundle, weights, total


def train_step(mp, teacher, xa, xv, cfg, epoch, step_seed, lr_t, rho, adam_step):
    """One optimizer step on a mini-batch; mutates student and teacher.

    The masked branch (``masked_branch``) and the clean branch
    (``clean_branch``) each back-propagate their own tape, so one student
    tape is alive at a time. Each parameter, and each node read twice,
    gets at most two gradient contributions a step, so the split gives the
    bits of one backward over both tapes. Then clip, AdamW and EMA.

    Batch-norm running statistics: the masked student pass updates the
    student's running mean and variance with the masked batch's statistics,
    then the clean student pass updates them with the clean batch's. The
    eval-mode teacher pass reads its own and never updates them; the
    teacher's buffers follow the student's by EMA.

    Every pass computes in float32: the batch is rounded to float32
    (exactly, for data read from a feature file), and each op rounds the
    weights it reads from the float64 master values, the student's or the
    teacher's, and keeps no rounded weight matrix past its return; a taped
    op rounds its weight once more in backward, for the input gradient. The master values
    change only after both backward walks, so both roundings give the same
    bits. The teacher's two embeddings are upcast to float64 once, for
    mining and distillation. The teacher's gradients and moments are never
    written.

    Returns (LossBundle value dict, effective weights, total value)."""
    n = xa.shape[0]
    if n < 2:
        raise ValueError("train_step: batch size must be >= 2")

    mp.arena.prepare_step()
    xa32, xv32 = (np.asarray(x, dtype=np.float32) for x in (xa, xv))
    ss = np.random.SeedSequence(step_seed)
    rng_mae, rng_cca = (np.random.default_rng(child) for child in ss.spawn(2))
    sigmas = {name: mp.sigma(name) for name in LOSS_NAMES}

    spent = LossBundle()
    if cfg.use_rec or cfg.use_infonce or cfg.use_dis:
        spent = masked_branch(mp, teacher, xa32, xv32, cfg, epoch, step_seed, rng_mae, sigmas)
    bundle, weights, total = clean_branch(mp, xa32, xv32, cfg, epoch, rng_cca, sigmas, spent)
    clip_global_norm(mp.arena, cfg.optim.clip_norm)
    adamw_step(mp.arena, cfg.optim, adam_step, lr_t)
    ema_update(teacher, mp, rho)
    return bundle.values(), weights, float(total.value[0, 0])


def train(view, cfg, score=None, step_hook=None):
    """Full training loop.

    ``view`` is the label-stripped TrainView. ``score(mp)``, if given, runs
    every ``cfg.eval_every`` epochs on the student (before the post-hoc CCA,
    which is fitted only once, after the final epoch) and returns a report
    whose ``map_a2v``, ``map_v2a`` and ``map_avg`` the epoch's log keeps.
    ``step_hook(mp, teacher, rho)`` runs after every step. A NumericError
    raised in a step gains the suffix `` (epoch E, step S)``, with S counted
    from 1 within the epoch.
    """
    if not isinstance(view, TrainView):
        view = TrainView(audio=np.asarray(view[0]), visual=np.asarray(view[1]))
    n = view.audio.shape[0]
    if n == 0:
        raise ValueError("train: empty training split")

    mp = ModelParams(cfg.model, seed=cfg.seed)
    teacher = mp.copy()
    logs = []
    adam_step = 0

    for epoch in range(1, cfg.epochs + 1):
        lr_t = cosine_lr(epoch, cfg.optim)
        rho = anneal_momentum(epoch, cfg.epochs)
        sums = {name: 0.0 for name in LOSS_NAMES}
        total_sum = 0.0
        weights = {}
        epoch_batches = batches(n, cfg.batch_size, seed=_step_seed(cfg.seed, epoch, 0xBA7C4))
        if not epoch_batches:
            raise ValueError(f"train: batch size {cfg.batch_size} exceeds split size {n}")
        for bi, idx in enumerate(epoch_batches):
            adam_step += 1
            try:
                values, weights, total_value = train_step(
                    mp, teacher, view.audio[idx], view.visual[idx], cfg, epoch,
                    _step_seed(cfg.seed, epoch, bi), lr_t, rho, adam_step)
            except dc.NumericError as exc:
                raise dc.NumericError(f"{exc} (epoch {epoch}, step {bi + 1})") from None
            for name in LOSS_NAMES:
                sums[name] += values[name]
            total_sum += total_value
            if step_hook is not None:
                step_hook(mp, teacher, rho)
        nb = len(epoch_batches)
        log = EpochLog(epoch=epoch,
                       losses={name: sums[name] / nb for name in LOSS_NAMES},
                       weights=weights, total=total_sum / nb, lr=lr_t, rho=rho)
        if score is not None and cfg.eval_every and epoch % cfg.eval_every == 0:
            report = score(mp)
            log.map_a2v, log.map_v2a, log.map_avg = report.map_a2v, report.map_v2a, report.map_avg
        logs.append(log)

    za, zv = embed_arrays(mp, view.audio, view.visual)
    p = min(cfg.cca_post_dim, cfg.model.proj_dim)
    cca_model = cca_linear.fit(za, zv, p=p, eps=cfg.cca_eps)
    return TrainResult(params=mp, teacher=teacher, cca_model=cca_model, logs=logs)


# ---------------------------------------------------------------------------
# checkpoint assembly
# ---------------------------------------------------------------------------

def save_checkpoint(path, result):
    """Write the config, the student and the appended CCA. The EMA teacher
    is needed only during training and is not saved."""
    entries = {}
    entries.update(config_entries(result.params.config))
    entries.update(result.params.state_entries())
    entries.update(cca_linear.checkpoint_entries(result.cca_model))
    save_entries(path, entries)


def _check_cca_entries(entries, dim):
    """cca/* entries fit a projection of width ``dim``: means (1, dim),
    directions (dim, p) and rho (1, p) with 1 <= p <= dim."""
    rho = entries["cca/rho"]
    p = rho.shape[1]
    if rho.shape[0] != 1 or not 1 <= p <= dim:
        raise CheckpointError(f"entry 'cca/rho' has shape {rho.shape}, "
                              f"expected (1, p) with 1 <= p <= {dim}")
    for name, shape in (("cca/mean_a", (1, dim)), ("cca/mean_v", (1, dim)),
                        ("cca/A", (dim, p)), ("cca/B", (dim, p))):
        if entries[name].shape != shape:
            raise CheckpointError(f"entry {name!r} has shape {entries[name].shape}, "
                                  f"expected {shape}")


def _check_values(mp, cca_entries):
    """Every parameter, buffer and cca/* value is finite and every running
    variance is non-negative; raises CheckpointError naming the entry. One
    serial scan checks the parameters in arena order, then the buffers, then
    the cca/* entries, so a checkpoint with several bad entries names the
    first of them in that order."""
    bad = next((name for name, value in (*mp.state_entries().items(), *cca_entries.items())
                if not np.isfinite(value).all()), None)
    if bad is not None:
        raise CheckpointError(f"entry {bad!r} holds a non-finite value")
    for name, value in mp.buffers.items():
        if name.endswith(".var") and (value < 0).any():
            raise CheckpointError(f"entry {name!r} holds a negative variance")


def load_checkpoint(path):
    """(student, appended CCA) of a checkpoint, with every error a
    CheckpointError naming the file.

    The record headers are indexed first (``read_index``), then the config/*
    and cca/* entries are read and every entry's shape is checked against
    the config: a missing entry or one of the wrong shape names both, and
    config/* entries that describe no valid model name the reason. Only
    then is the arena allocated, and each parameter is read straight into
    its slice of it. Extra entries, such as the teacher copy older
    checkpoints hold, are never read. Last, a NaN or an infinity in any
    parameter, buffer or cca/* entry, or a negative running variance, is
    refused, before anything is computed from the values."""
    with open(path, "rb") as fh:
        index = read_index(fh, path)
        try:
            cca_entries = {name: entry.read() for name, entry in index.items()
                           if name.startswith("cca/")}
            config = config_from_entries({name: entry.read() for name, entry in index.items()
                                          if name.startswith("config/")})
            _check_cca_entries(cca_entries, config.proj_dim)
            mp = ModelParams(config, entries=index)
            _check_values(mp, cca_entries)
            return mp, cca_linear.from_checkpoint_entries(cca_entries)
        except KeyError as exc:  # a config/* or cca/* entry
            raise CheckpointError(f"{path}: missing entry {exc.args[0]!r}") from None
        except (ValueError, OverflowError, IndexError) as exc:  # unusable config/* values
            raise CheckpointError(f"{path}: config/* entries describe no valid model: {exc}") from None
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None


def epoch_log_rows(logs):
    """CSV rows (with schema header) for the per-epoch loss decomposition."""
    header = ("epoch,l_rec,l_cca,l_infonce,l_dis,"
              "w_rec,w_cca,w_infonce,w_dis,total,lr,rho,map_a2v,map_v2a,map_avg")
    rows = [header]
    for log in logs:
        cells = [str(log.epoch)]
        cells += [repr(log.losses[name]) for name in LOSS_NAMES]
        cells += [repr(float(log.weights.get(name, 0.0))) for name in LOSS_NAMES]
        cells += [repr(log.total), repr(log.lr), repr(log.rho)]
        for v in (log.map_a2v, log.map_v2a, log.map_avg):
            cells.append("" if v is None else repr(v))
        rows.append(",".join(cells))
    return rows

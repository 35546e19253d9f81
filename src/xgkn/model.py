"""The graph kernel network: kernel responses -> per-filter aggregation ->
batch-normalized predictor, plus the training loop and the filter
perturbation hooks the model-level metrics rely on.

Aggregation modes: ``sum`` (plain column sums), ``negative_entropy``
(responses normalized by the response-matrix norm, contributions q*log q)
and ``max`` (column max with the attaining row recorded).
"""

from __future__ import annotations

import numpy as np

from . import numkit as nk
from .data import Dataset, Split
from .errors import CapacityError, NumericError, ShapeError, TrainingDivergedError
from .graphs import Rng
from .kernel import (
    MAX_BLOCK_ENTRIES,
    FeatureEncoder,
    FilterBank,
    SplitWalks,
    WalkInputs,
    build_stack,
    build_subgraph_stack,
    filter_products,
    stack_responses,
    walk_inputs,
)
from .record import Record

AGG_MODES = ("sum", "negative_entropy", "max")


class ModelConfig(Record):
    num_filters: int = 4
    filter_size: int = 6
    embed_dim: int = 16
    hop_radius: int = 2
    max_subgraph_size: int = 10
    agg_mode: str = "negative_entropy"
    predictor_depth: int = 1
    hidden_dim: int = 16
    walk_cap: int | None = None
    entropy_eps: float = 1e-8
    norm_scope: str = "global"
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        for name in ("num_filters", "filter_size", "embed_dim", "hop_radius",
                     "max_subgraph_size", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.walk_cap is not None and self.walk_cap < 0:
            raise ValueError(f"walk_cap must be None or >= 0, got {self.walk_cap}")
        if self.agg_mode not in AGG_MODES:
            raise ValueError(f"agg_mode must be one of {AGG_MODES}")
        if self.norm_scope not in ("global", "per_column"):
            raise ValueError("norm_scope must be 'global' or 'per_column'")
        if self.predictor_depth not in (1, 2):
            raise ValueError("predictor_depth must be 1 or 2")


class TrainConfig(Record):
    epochs: int = 300
    lr: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    seed: int = 0
    patience: int = 100

    def __post_init__(self):
        if not (0 < self.epochs <= 1000):
            raise ValueError("epochs must lie in 1..1000")
        for name in ("lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


class Predictor:
    """Batch normalization followed by one linear layer (or a 2-layer MLP).
    ``layers`` holds a (weight, bias) pair per layer."""

    def __init__(self, in_dim: int, num_classes: int, depth: int, hidden_dim: int,
                 rng: Rng, bn_eps: float = 1e-5, bn_momentum: float = 0.1):
        self.bn_eps = bn_eps
        self.bn_momentum = bn_momentum
        self.gamma = np.ones((1, in_dim))
        self.beta = np.zeros((1, in_dim))
        self.running_mean = np.zeros((1, in_dim))
        self.running_var = np.ones((1, in_dim))
        self.layers = []
        dims = [in_dim, num_classes] if depth == 1 else [in_dim, hidden_dim, num_classes]
        for d_in, d_out in zip(dims, dims[1:]):
            self.layers.append((rng.normal(scale=1.0 / np.sqrt(d_in), size=(d_in, d_out)),
                                np.zeros((1, d_out))))

    @property
    def in_dim(self) -> int:
        return self.gamma.shape[1]

    def logits(self, z: np.ndarray) -> np.ndarray:
        """Inference logits of the rows of ``z``: the frozen batch-norm
        statistics and row-local products, so each row's logits do not depend
        on the rows scored with it."""
        if z.shape[1] != self.in_dim:
            raise ShapeError(f"predictor expects width {self.in_dim}, got {z.shape[1]}")
        scale = 1.0 / np.sqrt(self.running_var + self.bn_eps)
        out = (z - self.running_mean) * scale * self.gamma + self.beta
        for i, (w, b) in enumerate(self.layers):
            out = nk.row_local_product(out, w) + b
            if i + 1 < len(self.layers):
                out = out * (out > 0.0)
        return out


class ForwardPass(Record):
    """What the explainer and the metrics read from an inference pass over a
    batch of graphs. Row i of ``z`` and ``logits`` is graph i; the responses
    ``R`` and ``contributions`` hold the graphs' node rows in order, graph i's
    at rows ``bounds[i]:bounds[i + 1]``, and ``argmax_rows`` (max aggregation
    only; graphs x filters) index those rows."""

    R: np.ndarray
    contributions: np.ndarray
    z: np.ndarray
    logits: np.ndarray
    bounds: np.ndarray
    argmax_rows: np.ndarray | None = None

    @property
    def predicted(self) -> np.ndarray:
        """The predicted class of each graph."""
        return np.argmax(self.logits, axis=1)


class XgknModel:
    def __init__(self, config: ModelConfig, encoder: FeatureEncoder, bank: FilterBank,
                 predictor: Predictor, num_classes: int):
        """Refuses K feature columns whose class products exceed MAX_BLOCK_ENTRIES."""
        self.config = config
        self.encoder = encoder
        self.bank = bank
        self.predictor = predictor
        self.num_classes = num_classes
        self.z_baseline = np.zeros(bank.num_filters)
        k, f, cap = encoder.weight.shape[0], bank.num_filters, self.walk_cap
        if f * k * k * (cap + 1) > MAX_BLOCK_ENTRIES:
            raise CapacityError(f"K = {k} feature columns, F = {f} filters and walk cap {cap} "
                                f"need F·K²·(cap + 1) = {f * k * k * (cap + 1)} class-product "
                                f"entries, above the cap of {MAX_BLOCK_ENTRIES}")

    @property
    def num_filters(self) -> int:
        return self.bank.num_filters

    @property
    def walk_cap(self) -> int:
        """The steps of every anchor walk: the filter size unless the config
        caps them."""
        cap = self.config.walk_cap
        return self.bank.size if cap is None else cap

    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays: the encoder weight, the bank's logits and
        rows, gamma, beta, then each layer's weight and bias."""
        pred = self.predictor
        return [self.encoder.weight, self.bank.adjacency_logits, self.bank.features,
                pred.gamma, pred.beta, *(p for layer in pred.layers for p in layer)]

    def set_parameters(self, arrays: list[np.ndarray]) -> None:
        """Take ``arrays``, in the order of ``parameters``, as the parameters."""
        pred = self.predictor
        (self.encoder.weight, self.bank.adjacency_logits, self.bank.features,
         pred.gamma, pred.beta, *layers) = arrays
        pred.layers = list(zip(layers[::2], layers[1::2]))


def init_model(config: ModelConfig, feature_dim: int, num_classes: int, rng: Rng) -> XgknModel:
    encoder = FeatureEncoder.init(feature_dim, config.embed_dim, rng.derive("encoder"))
    bank = FilterBank.init(config.num_filters, config.filter_size, config.embed_dim, rng)
    predictor = Predictor(config.num_filters, num_classes, config.predictor_depth,
                          config.hidden_dim, rng.derive("predictor"),
                          bn_eps=config.bn_eps, bn_momentum=config.bn_momentum)
    return XgknModel(config, encoder, bank, predictor, num_classes)


def _aggregate(r: np.ndarray, mode: str, eps: float, seg: np.ndarray, num_graphs: int,
               norm_scope: str = "global", training: bool = False):
    """Batched aggregation of the responses ``r``: (z, contribution values,
    argmax rows, backward). Outside training every graph's outputs are
    computed from its own rows alone, bit for bit as in a batch of one."""
    if mode == "sum":
        z, back = nk.segment_sum_rows(r, seg, num_graphs)
        return z, r.copy(), None, back
    if mode == "negative_entropy":
        z, contributions, back = nk.negative_entropy(r, seg, num_graphs, eps, norm_scope,
                                                     row_local=not training)
        return z, contributions, None, back
    if mode == "max":
        z, argrow, back = nk.segment_col_max(r, seg, num_graphs)
        s_tilde = np.zeros_like(r)
        s_tilde[argrow, np.arange(r.shape[1])] = z
        return z, s_tilde, argrow, back
    raise ValueError(f"unknown aggregation mode {mode!r}")


def _batch_forward(model: XgknModel, inputs: WalkInputs, graph_seg: np.ndarray,
                   num_graphs: int, products: np.ndarray):
    """Inference over the batch of ``num_graphs`` graphs whose node rows have
    the graph side ``inputs``, ``graph_seg`` giving each row's graph, under
    the model's ``kernel.filter_products`` ``products``: (logits, z,
    responses, contribution values, argmax rows). Row i of logits and z is
    graph i; responses and contributions hold the graphs' node rows in
    order, and argmax rows index them."""
    cfg = model.config
    r = stack_responses(inputs, products)[0]
    z, contributions, argrow, _ = _aggregate(r, cfg.agg_mode, cfg.entropy_eps, graph_seg,
                                             num_graphs, cfg.norm_scope)
    return model.predictor.logits(z), z, r, contributions, argrow


# Graphs per inference batch, which sets the peak memory of explain and
# evaluate.
INFERENCE_CHUNK = 32


def forward(model: XgknModel, graphs, products: np.ndarray | None = None) -> ForwardPass:
    """One inference pass over all of ``graphs`` (or ``kernel.Subgraphs``) at
    once: their stack from one ``build_stack`` and its ``walk_inputs``, then
    ``_batch_forward`` under the model's ``kernel.filter_products``, computed
    here unless given; batch-norm statistics stay frozen. Aggregation and
    the predictor are row-local, so a graph's rows equal its batch of one up
    to the kernel responses of the batch (see README)."""
    cfg = model.config
    if products is None:
        products = filter_products(model.bank, model.encoder, model.walk_cap)
    stack, graph_seg = build_stack(graphs, cfg.hop_radius, cfg.max_subgraph_size)
    inputs = walk_inputs(stack, model.walk_cap)
    logits, z, r, contributions, argrow = _batch_forward(model, inputs, graph_seg,
                                                         len(graphs), products)
    return ForwardPass(R=r, contributions=contributions, z=z, logits=logits,
                       bounds=np.searchsorted(graph_seg, np.arange(len(graphs) + 1)),
                       argmax_rows=argrow)


def forward_batch(model: XgknModel, graphs) -> ForwardPass:
    """Inference over graphs or ``kernel.Subgraphs``: one ``forward`` per
    INFERENCE_CHUNK graphs, the passes joined into one. The filter side of
    the kernel responses is computed once, for all chunks."""
    products = filter_products(model.bank, model.encoder, model.walk_cap)
    passes = [forward(model, graphs[lo:lo + INFERENCE_CHUNK], products)
              for lo in range(0, len(graphs), INFERENCE_CHUNK)]
    if len(passes) == 1:
        return passes[0]
    m = model.num_filters
    starts = np.cumsum([0] + [p.bounds[-1] for p in passes])

    def joined(field: str, width: int) -> np.ndarray:
        return np.concatenate([np.zeros((0, width))] + [getattr(p, field) for p in passes])

    return ForwardPass(
        R=joined("R", m), contributions=joined("contributions", m), z=joined("z", m),
        logits=joined("logits", model.num_classes),
        bounds=np.concatenate([[0]] + [p.bounds[1:] + lo for p, lo in zip(passes, starts)]),
        argmax_rows=None if model.config.agg_mode != "max" else np.concatenate(
            [np.zeros((0, m), dtype=np.int64)]
            + [p.argmax_rows + lo for p, lo in zip(passes, starts)]))


def evaluate_accuracy(model: XgknModel, ds: Dataset, ids) -> float:
    ids = list(ids)
    predicted = forward_batch(model, [ds.graphs[i] for i in ids]).predicted
    correct = sum(int(c) == ds.graphs[i].label for c, i in zip(predicted, ids))
    return correct / len(ids)


def train_step(model: XgknModel, inputs: WalkInputs, graph_seg: np.ndarray, labels,
               classes: np.ndarray, grads: list[np.ndarray]):
    """The forward of one training step over the batch of ``len(labels)``
    graphs whose node rows have the graph side ``inputs`` (``graph_seg``
    gives each row's graph): the (1, 1) loss, the logits, and the steps for
    ``numkit.backward``, which writes each parameter's gradient into its
    array of ``grads`` (``parameters`` order). ``classes``, the identity over
    the K feature classes, is the encoder's input. Batch norm moves the
    running statistics towards the batch's. The program is straight-line:
    only the filter side forks, into the class products."""
    cfg, bank, pred = model.config, model.bank, model.predictor
    g_weight, g_logits, g_features, g_gamma, g_beta, *g_layers = grads
    steps = []

    def record(back, *sinks) -> int:
        steps.append((back, sinks))
        return len(steps) - 1

    adjacency, back = nk.symmetric_adjacency(bank.adjacency_logits, bank.mask)
    at_adjacency = record(back, g_logits)
    rows, back = nk.row_unit_normalize(bank.features)
    at_rows = record(back, g_features)
    encoded, back = nk.matmul(classes, model.encoder.weight)
    at = record(back, None, g_weight)
    shared, back = nk.row_unit_normalize(encoded)
    at_shared = record(back, at)
    products, back = nk.class_products(rows, shared, adjacency, inputs.cap)
    at = record(back, at_rows, at_shared, at_adjacency)
    r, back = stack_responses(inputs, products, training=True)
    at = record(back, at)
    z, _, _, back = _aggregate(r, cfg.agg_mode, cfg.entropy_eps, graph_seg, len(labels),
                               cfg.norm_scope, training=True)
    at = record(back, at)
    out, mean, var, back = nk.batch_norm(z, pred.gamma, pred.beta, cfg.bn_eps)
    at = record(back, at, g_gamma, g_beta)
    mom = pred.bn_momentum
    pred.running_mean = (1 - mom) * pred.running_mean + mom * mean
    pred.running_var = (1 - mom) * pred.running_var + mom * var
    for i, (w, b) in enumerate(pred.layers):
        if i:
            out, back = nk.relu(out)
            at = record(back, at)
        out, back = nk.affine(out, w, b)
        at = record(back, at, *g_layers[2 * i:2 * i + 2])
    loss, back = nk.cross_entropy(out, labels)
    record(back, at)
    return loss, out, steps


def train(model: XgknModel, ds: Dataset, split: Split, cfg: TrainConfig):
    """Mini-batch Adam on the cross-entropy loss. Deterministic under
    ``cfg.seed``; stops early once more than ``cfg.patience`` epochs in a
    row have not lowered the lowest epoch loss, and returns the parameters
    after the last update. Also sets the explainer baseline (mean aggregated
    scores over the training split). The graph side of the kernel responses
    is built once for the split, and every batch and recalibration part
    takes its rows from it. The parameters become views of the optimizer's
    flat buffer, and each step's gradient fills one buffer laid out alike."""
    train_ids = list(split.train_ids)
    split_walks = SplitWalks([build_subgraph_stack(ds.graphs[i], model.config.hop_radius,
                                                   model.config.max_subgraph_size)
                              for i in train_ids], model.walk_cap)
    labels = np.array([ds.graphs[i].label for i in train_ids], dtype=np.int64)
    state = nk.AdamState(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    model.set_parameters(state.split(state.flat))
    grad = np.zeros_like(state.flat)
    grads = state.split(grad)
    classes = np.eye(model.encoder.weight.shape[0])
    shuffle_rng = Rng(cfg.seed).derive("shuffle")
    history = []
    best_loss, best_epoch = np.inf, -1
    n = len(train_ids)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            inputs, graph_seg = split_walks.batch(batch)
            loss, logits, steps = train_step(model, inputs, graph_seg, labels[batch], classes,
                                             grads)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(epoch, history)
            nk.backward(steps, grad)
            nk.adam_step(state, grad)
            epoch_loss += loss_value * len(batch)
            epoch_correct += int((np.argmax(logits, axis=1) == labels[batch]).sum())
        epoch_loss /= n
        history.append({"epoch": epoch, "loss": epoch_loss, "accuracy": epoch_correct / n})
        if epoch_loss < best_loss - 1e-12:
            best_loss, best_epoch = epoch_loss, epoch
        elif epoch - best_epoch > cfg.patience:
            break
    # recalibrate frozen batch-norm statistics on the training split so the
    # inference normalization matches the final parameters exactly
    products = filter_products(model.bank, model.encoder, model.walk_cap)
    scores = []
    for lo in range(0, n, 128):
        part = np.arange(lo, min(lo + 128, n))
        scores.append(_batch_forward(model, *split_walks.batch(part), len(part), products)[1])
    scores = np.vstack(scores)
    model.predictor.running_mean = scores.mean(axis=0, keepdims=True)
    model.predictor.running_var = scores.var(axis=0, keepdims=True)
    model.z_baseline = scores.mean(axis=0)
    return model, history


_SATURATED_LOGIT = 40.0


def perturb_filters(model: XgknModel, mode: str, delta: float, rng: Rng,
                    feature_pool: np.ndarray | None = None) -> XgknModel:
    """Deep-copied model with perturbed filters; every other parameter stays.

    ``features``: each filter node's embedding row is replaced, with
    probability ``delta``, by the encoding of a random raw feature row from
    ``feature_pool``. ``edges``: each node pair toggles (edge <-> no edge, at
    the 0.5 weight threshold) with probability ``delta``.
    """
    out = model_from_dict(model_to_dict(model))
    bank = out.bank
    if mode == "features":
        if feature_pool is None or len(feature_pool) == 0:
            raise ValueError("feature mode needs a nonempty feature pool")
        pool = np.asarray(feature_pool, dtype=np.float64)
        features = bank.features.copy()
        for block in bank.blocks(features):
            for row in np.flatnonzero(rng.random(bank.size) < delta):
                raw = pool[int(rng.integers(0, pool.shape[0]))]
                block[row] = out.encoder.encode(raw.reshape(1, -1))[0]
        bank.features = features
    elif mode == "edges":
        logits = bank.adjacency_logits.copy()
        upper = np.triu(np.ones((bank.size, bank.size), dtype=bool), 1)
        for block, effective in zip(bank.blocks(logits), bank.adjacency_values()):
            toggle = upper & (rng.random((bank.size, bank.size)) < delta)
            flip = np.where(effective >= 0.5, -_SATURATED_LOGIT, _SATURATED_LOGIT)
            block[toggle] = flip[toggle]
            block.T[toggle] = flip[toggle]
        bank.adjacency_logits = logits
    else:
        raise ValueError(f"unknown filter perturbation mode {mode!r}")
    return out


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_FORMAT = 1


def model_to_dict(model: XgknModel) -> dict:
    cfg = model.config
    return {
        "format": CHECKPOINT_FORMAT,
        "config": {
            "num_filters": cfg.num_filters, "filter_size": cfg.filter_size,
            "embed_dim": cfg.embed_dim, "hop_radius": cfg.hop_radius,
            "max_subgraph_size": cfg.max_subgraph_size, "agg_mode": cfg.agg_mode,
            "predictor_depth": cfg.predictor_depth, "hidden_dim": cfg.hidden_dim,
            "walk_cap": cfg.walk_cap, "entropy_eps": cfg.entropy_eps,
            "norm_scope": cfg.norm_scope, "bn_eps": cfg.bn_eps,
            "bn_momentum": cfg.bn_momentum,
        },
        "num_classes": model.num_classes,
        "feature_dim": model.encoder.weight.shape[0],
        "encoder_weight": model.encoder.weight.tolist(),
        "filters": [
            {"adjacency_logits": logits.tolist(), "features": features.tolist()}
            for logits, features in zip(model.bank.blocks(model.bank.adjacency_logits),
                                        model.bank.blocks(model.bank.features))
        ],
        "predictor": {
            "gamma": model.predictor.gamma.tolist(),
            "beta": model.predictor.beta.tolist(),
            "running_mean": model.predictor.running_mean.tolist(),
            "running_var": model.predictor.running_var.tolist(),
            "layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in model.predictor.layers],
        },
        "z_baseline": model.z_baseline.tolist(),
    }


def _checked_array(field: str, value, shape: tuple) -> np.ndarray:
    """The checkpoint array ``value`` of ``field``, refused unless it has
    ``shape`` and only finite entries."""
    array = np.array(value, dtype=np.float64)
    if array.shape != shape:
        raise ShapeError(f"checkpoint field '{field}' has shape {array.shape}, "
                         f"expected {shape}")
    if not np.isfinite(array).all():
        raise NumericError(f"checkpoint field '{field}' holds a non-finite value")
    return array


def model_from_dict(payload: dict) -> XgknModel:
    """The model of a checkpoint. Every array is checked against the shape
    its config implies and for non-finite values, and ``running_var`` for
    negative entries, before the model is built."""
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')!r}")
    config = ModelConfig(**payload["config"])
    size, dim, entries = config.filter_size, config.embed_dim, payload["filters"]
    encoder = FeatureEncoder(_checked_array(
        "encoder_weight", payload["encoder_weight"], (payload["feature_dim"], dim)))
    if len(entries) != config.num_filters:
        raise ShapeError(f"checkpoint field 'filters' has {len(entries)} entries, "
                         f"expected num_filters = {config.num_filters}")
    bank = FilterBank(*(
        np.vstack([_checked_array(f"filters[{i}].{key}", f[key], shape)
                   for i, f in enumerate(entries)])
        for key, shape in (("adjacency_logits", (size, size)), ("features", (size, dim)))))
    predictor = Predictor(config.num_filters, payload["num_classes"],
                          config.predictor_depth, config.hidden_dim, Rng(0),
                          bn_eps=config.bn_eps, bn_momentum=config.bn_momentum)
    pred, width = payload["predictor"], (1, config.num_filters)
    predictor.gamma = _checked_array("predictor.gamma", pred["gamma"], width)
    predictor.beta = _checked_array("predictor.beta", pred["beta"], width)
    predictor.running_mean = _checked_array("predictor.running_mean", pred["running_mean"],
                                            width)
    predictor.running_var = _checked_array("predictor.running_var", pred["running_var"], width)
    if (predictor.running_var < 0).any():
        raise NumericError("checkpoint field 'predictor.running_var' holds a negative value")
    if len(pred["layers"]) != config.predictor_depth:
        raise ShapeError(f"checkpoint field 'predictor.layers' has {len(pred['layers'])} "
                         f"entries, expected predictor_depth = {config.predictor_depth}")
    predictor.layers = [
        (_checked_array(f"predictor.layers[{i}].w", layer["w"], w.shape),
         _checked_array(f"predictor.layers[{i}].b", layer["b"], b.shape))
        for i, ((w, b), layer) in enumerate(zip(predictor.layers, pred["layers"]))]
    model = XgknModel(config, encoder, bank, predictor, payload["num_classes"])
    model.z_baseline = _checked_array("z_baseline", payload["z_baseline"],
                                      (config.num_filters,))
    return model

"""Continuous piecewise-affine (CPA) generator networks.

A network is a stack of affine layers with exactly piecewise-affine
activations (identity, relu, leaky relu).  On every region of the induced
input-space partition the whole network is one affine map ``x = A z + b``;
this module recovers that map exactly from the activation pattern at a
point, which is what the rest of the package builds on.
"""

import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ValidationError, finite_array, read_field, read_json

ACTIVATIONS = ("identity", "relu", "leaky_relu")

# Bytes per block of every batched loop (pool scoring, distance matrices).
# ``map_blocks`` holds one block in flight per CPU, and glibc keeps a freed
# heap top resident in each thread's arena, so peak memory grows with this
# budget times the CPU count.  The block partition never depends on CPUs.
BLOCK_BYTES = 1 << 20


def row_blocks(n_rows, row_bytes):
    """Slices of range(n_rows): one row, or as many as fit in BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _workers():
    """Threads ``map_blocks`` runs on: one per CPU in the affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded at the
    first call, or None when none is loaded or one has no such function.
    Only numpy's OpenBLAS runs inside ``map_blocks``; it loads with numpy."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    names = ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
             "openblas_%s_num_threads64_", "openblas_%s_num_threads")
    controls = []
    for lib in libs:
        name = next((n for n in names if hasattr(lib, n % "get")), None)
        if name is None:
            return None
        get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls or None


# map_blocks calls now holding OpenBLAS to one thread, and the thread counts
# the first of them found; both guarded by _blas_lock
_blas_lock = threading.Lock()
_blas_holds = 0
_blas_saved = None


def map_blocks(fn, n_rows, row_bytes):
    """``[fn(rows) for rows in row_blocks(n_rows, row_bytes)]``, the blocks
    shared out between the calling thread and one helper per extra CPU.

    Every thread takes the next block from one iterator; a helper runs its
    blocks in a copy of the caller's context, so ``np.errstate`` holds there
    too.  OpenBLAS is held to one thread meanwhile, so the threads do not
    oversubscribe the CPUs; where that control is not found, the blocks run
    serially.  Of nested or concurrent calls, the first to hold OpenBLAS
    saves its thread counts and the last to leave restores them.  Once a
    block raises, no further block starts; every started block finishes, and
    the first failing block's error is raised, as the serial loop would
    raise it.  The helpers start and end inside the call, so no thread
    outlives it: ``fn`` may call ``map_blocks``, and a forked process may
    too.
    """
    global _blas_holds, _blas_saved
    blocks = list(row_blocks(n_rows, row_bytes))
    helpers = min(_workers(), len(blocks)) - 1
    blas = _openblas_controls() if helpers > 0 else None
    if blas is None:
        return [fn(rows) for rows in blocks]
    import contextvars

    todo, lock = enumerate(blocks), threading.Lock()
    results, errors = [None] * len(blocks), {}

    def work():
        while True:
            with lock:
                job = None if errors else next(todo, None)
            if job is None:
                return
            i, rows = job
            try:
                results[i] = fn(rows)
            except BaseException as exc:   # re-raised below, once all threads stop
                with lock:
                    errors[i] = exc

    with _blas_lock:
        if _blas_holds == 0:
            _blas_saved = [get() for get, _ in blas]
            for _, set_ in blas:
                set_(1)
        _blas_holds += 1
    threads = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
        with _blas_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                for (_, set_), count in zip(blas, _blas_saved):
                    set_(count)
    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True)
class Layer:
    """One affine layer: ``a(W h + c)`` with a piecewise-affine activation."""

    weight: np.ndarray   # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str = "identity"
    alpha: float = 0.0   # leaky slope, only meaningful for leaky_relu

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise ValidationError(f"layer weight must be a matrix, not shape {w.shape}")
        if b.shape != w.shape[:1]:
            raise ValidationError(
                f"layer weight {w.shape} and bias {b.shape} do not agree"
            )
        for name, value in (("weight", w), ("bias", b)):
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"layer {name} holds non-finite entries")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unsupported activation {self.activation!r} (only "
                                  f"exact piecewise-affine activations are supported)")
        if self.activation == "leaky_relu" and not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"leaky slope alpha={self.alpha} outside (0, 1)")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def nonlinear(self):
        return self.activation != "identity"


@dataclass(frozen=True)
class CpaNetwork:
    name: str
    layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("network needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise ValidationError(
                    f"layer {i} expects input dim {layers[i].in_dim} but layer "
                    f"{i - 1} outputs {layers[i - 1].out_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim

    @property
    def num_units(self):
        """Total count of nonlinear units (= activation-code length)."""
        return sum(l.out_dim for l in self.layers if l.nonlinear)


def _check_input(net, z):
    z = np.asarray(z, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != net.input_dim:
        raise InputError(
            f"expected latent vectors of dim {net.input_dim}, got shape {z.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise InputError("latent input contains non-finite entries")
    return z, squeeze


def _apply_activation(layer, pre):
    """The activation, written over ``pre`` in place: every caller reads its
    bits (``pre > 0.0``) first.

    Bit for bit the ``np.where(pre > 0.0, pre, ...)`` form.  Relu: fmax maps
    NaN to 0 as that does, and keeps the sign of some -0.0 entries, which
    adding +0.0 clears.  Leaky, 0 < alpha < 1: rounding is monotone, so
    ``alpha * pre`` lies between 0 and ``pre`` and the larger of the two is
    the leaky value, ±0.0 and subnormals included.
    """
    if layer.activation == "relu":
        np.fmax(pre, 0.0, out=pre)
        pre += 0.0
    elif layer.activation == "leaky_relu":
        np.maximum(pre, layer.alpha * pre, out=pre)
    return pre


def _layers(net, h):
    """The one layer walk: yields ``(layer, pre)``, ``pre = h @ W.T + b`` in a
    fresh array, and on resume writes the activation over ``pre`` and carries
    it on as the next layer's input.  Callers read ``pre > 0.0`` before
    resuming; once the walk ends, the array last yielded holds the output."""
    for layer in net.layers:
        pre = h @ layer.weight.T
        pre += layer.bias
        yield layer, pre
        h = _apply_activation(layer, pre)


def forward(net, z):
    """Evaluate the network at ``z`` (a vector, or a batch of row vectors)."""
    h, squeeze = _check_input(net, z)
    for _, h in _layers(net, h):
        pass
    return h[0] if squeeze else h


def _codes_and_output(net, z):
    """One forward walk over checked latents: their activation codes as a
    (n, num_units) bool array, and the network's output."""
    bits = [np.zeros((z.shape[0], 0), dtype=bool)]
    for layer, pre in _layers(net, z):
        if layer.nonlinear:
            bits.append(pre > 0.0)
    return np.concatenate(bits, axis=1), pre


def region_codes(net, z):
    """Activation codes for a batch of latents, as a (n, num_units) bool array.

    Bit convention: 1 iff the pre-activation is strictly positive; an exact
    zero lands on the "off" branch.
    """
    return _codes_and_output(net, _check_input(net, z)[0])[0]


def slopes(net, bits):
    """The slopes ``A``, (n, D, K), of the regions whose activation codes are
    the rows of ``bits``, a (n, num_units) bool array as ``region_codes``
    returns it.

    The one slope chain of the package: it starts from I_K, and each layer
    applies ``A = W @ A``, then scales the rows of its units by their bits
    (1 when on; 0 for relu, alpha for leaky relu, when off).  A slope
    depends on its code alone, and numpy's stacked matmul computes each
    matrix on its own, so a region's slope has the same bits in any batch.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2 or bits.shape[1] != net.num_units:
        raise InputError(f"expected activation codes of {net.num_units} bits, "
                         f"got shape {bits.shape}")
    K = net.input_dim
    A = np.broadcast_to(np.eye(K), (bits.shape[0], K, K)).copy()
    unit = 0
    for layer in net.layers:
        A = layer.weight[None, :, :] @ A
        if layer.nonlinear:
            on = bits[:, unit:unit + layer.out_dim]
            unit += layer.out_dim
            scale = np.where(on, 1.0, 0.0 if layer.activation == "relu" else layer.alpha)
            A *= scale[:, :, None]
    return A


def affine_maps(net, z):
    """Exact per-region affine maps at a batch of latents.

    Returns (A, b, bits) with shapes (n, D, K), (n, D) and (n, num_units);
    ``bits`` equals ``region_codes(net, z)`` and ``A`` equals
    ``slopes(net, bits)``.  The activation mask is fixed by the code at each
    point, so the returned map reproduces ``forward`` exactly everywhere
    inside that point's region.
    """
    z0, _ = _check_input(net, z)
    bits, h = _codes_and_output(net, z0)
    A = slopes(net, bits)
    b = h - np.einsum("ndk,nk->nd", A, z0)
    return A, b, bits


def compose(inner, outer):
    """Network computing ``outer(inner(z))``; stays exactly CPA."""
    if inner.output_dim != outer.input_dim:
        raise ValidationError(
            f"cannot compose: inner outputs dim {inner.output_dim}, outer "
            f"expects {outer.input_dim}"
        )
    return CpaNetwork(
        name=f"{outer.name}.{inner.name}", layers=inner.layers + outer.layers
    )


# --- serialization -----------------------------------------------------------
#
# Model schema: {"name", "input_dim", "layers": [{"weight": [[...]], "bias": [...],
# "activation": "identity"|"relu"|"leaky_relu", "alpha"?: float}]}
# Floats go through repr(), which round-trips 64-bit values exactly.


def to_dict(net):
    out = {"name": net.name, "input_dim": net.input_dim, "layers": []}
    for layer in net.layers:
        d = {
            "weight": [[float(v) for v in row] for row in layer.weight],
            "bias": [float(v) for v in layer.bias],
            "activation": layer.activation,
        }
        if layer.activation == "leaky_relu":
            d["alpha"] = float(layer.alpha)
        out["layers"].append(d)
    return out


def from_dict(data):
    read_field(data, dict, "model document", ValidationError)
    for key in ("name", "input_dim", "layers"):
        if key not in data:
            raise ValidationError(f"model document missing field {key!r}")
    input_dim = read_field(data["input_dim"], int, "model field 'input_dim'", ValidationError)
    layers = []
    for i, spec in enumerate(read_field(data["layers"], list, "model field 'layers'",
                                        ValidationError)):
        if "weight" not in read_field(spec, dict, f"layer {i}", ValidationError):
            raise ValidationError(f"layer {i}: no weight matrix")
        alpha = read_field(spec.get("alpha", 0.0), float, f"layer {i}: alpha",
                           ValidationError)
        try:
            weight = finite_array(spec["weight"], "weight", ValidationError)
            bias = finite_array(spec.get("bias", np.zeros(weight.shape[:1])), "bias",
                                ValidationError)
            layers.append(Layer(weight, bias, spec.get("activation", "identity"), alpha))
        except ValidationError as exc:
            raise ValidationError(f"layer {i}: {exc}") from exc
    net = CpaNetwork(name=str(data["name"]), layers=tuple(layers))
    if net.input_dim != input_dim:
        raise ValidationError(f"layer 0: weight expects input dim {net.input_dim}, "
                              f"model declares input_dim {input_dim}")
    return net


def save_model(net, path):
    with open(path, "w") as fh:
        json.dump(to_dict(net), fh, indent=1)
        fh.write("\n")


def load_model(path):
    return from_dict(read_json(path, ValidationError))


def fingerprint(net):
    """Content hash of the canonical serialized model, for pool/model pairing."""
    blob = json.dumps(to_dict(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def identity_net(dim, name="identity"):
    return CpaNetwork(name=name, layers=(Layer(np.eye(dim), np.zeros(dim)),))

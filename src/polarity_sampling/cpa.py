"""Continuous piecewise-affine (CPA) generator networks.

A network is a stack of affine layers with exactly piecewise-affine
activations (identity, relu, leaky relu).  On every region of the induced
input-space partition the whole network is one affine map ``x = A z + b``;
this module recovers that map exactly from the activation pattern at a
point, which is what the rest of the package builds on.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ValidationError, finite_array, read_json

ACTIVATIONS = ("identity", "relu", "leaky_relu")

# Bytes per block of every batched loop (pool scoring, distance matrices):
# glibc keeps a freed heap top resident, so a bigger block adds to later peaks.
BLOCK_BYTES = 1 << 22


def row_blocks(n_rows, row_bytes):
    """Slices of range(n_rows): one row, or as many as fit in BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(i, i + step) for i in range(0, n_rows, step))


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
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValidationError(
                f"layer weight {w.shape} and bias {b.shape} do not agree"
            )
        for name, value in (("weight", w), ("bias", b)):
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"layer {name} holds non-finite entries")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unsupported activation {self.activation!r}")
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
    if layer.activation == "identity":
        return pre
    if layer.activation == "relu":
        return np.where(pre > 0.0, pre, 0.0)
    return np.where(pre > 0.0, pre, layer.alpha * pre)


def forward(net, z):
    """Evaluate the network at ``z`` (a vector, or a batch of row vectors)."""
    h, squeeze = _check_input(net, z)
    for layer in net.layers:
        h = _apply_activation(layer, h @ layer.weight.T + layer.bias)
    return h[0] if squeeze else h


def region_codes(net, z):
    """Activation codes for a batch of latents, as a (n, num_units) bool array.

    Bit convention: 1 iff the pre-activation is strictly positive; an exact
    zero lands on the "off" branch.
    """
    h, _ = _check_input(net, z)
    bits = []
    for layer in net.layers:
        pre = h @ layer.weight.T + layer.bias
        if layer.nonlinear:
            bits.append(pre > 0.0)
        h = _apply_activation(layer, pre)
    return _join_bits(bits, h.shape[0])


def _join_bits(bits, n):
    if not bits:
        return np.zeros((n, 0), dtype=bool)
    return np.concatenate(bits, axis=1)


def affine_maps(net, z):
    """Exact per-region affine maps at a batch of latents.

    Returns (A, b, bits) with shapes (n, D, K), (n, D) and (n, num_units);
    ``bits`` equals ``region_codes(net, z)``.  The activation mask is fixed
    by the code at each point, so the returned map reproduces ``forward``
    exactly everywhere inside that point's region.
    """
    h, _ = _check_input(net, z)
    z0 = h.copy()
    n = h.shape[0]
    A = np.broadcast_to(
        np.eye(net.input_dim), (n, net.input_dim, net.input_dim)
    ).copy()
    bits = []
    for layer in net.layers:
        pre = h @ layer.weight.T + layer.bias
        A = layer.weight[None, :, :] @ A
        if layer.nonlinear:
            on = pre > 0.0
            bits.append(on)
            scale = np.where(on, 1.0, 0.0 if layer.activation == "relu" else layer.alpha)
            A *= scale[:, :, None]
        h = _apply_activation(layer, pre)
    b = h - np.einsum("ndk,nk->nd", A, z0)
    return A, b, _join_bits(bits, n)


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
    if not isinstance(data, dict):
        raise ValidationError("model document must be an object")
    for key in ("name", "input_dim", "layers"):
        if key not in data:
            raise ValidationError(f"model document missing field {key!r}")
    if not isinstance(data["layers"], list):
        raise ValidationError("model field 'layers' must be a list")
    prev_dim = data["input_dim"]
    if isinstance(prev_dim, bool) or not isinstance(prev_dim, int):
        raise ValidationError(f"model field 'input_dim' must be an integer, "
                              f"got {prev_dim!r}")
    layers = []
    for i, spec in enumerate(data["layers"]):
        if not isinstance(spec, dict):
            raise ValidationError(f"layer {i}: expected an object")
        act = spec.get("activation", "identity")
        if act not in ACTIVATIONS:
            raise ValidationError(
                f"layer {i}: unsupported activation {act!r} (only exact "
                f"piecewise-affine activations are supported)"
            )
        if "weight" not in spec:
            raise ValidationError(f"layer {i}: no weight matrix")
        weight = finite_array(spec["weight"], f"layer {i}: weight", ValidationError)
        if weight.ndim != 2:
            raise ValidationError(
                f"layer {i}: weight rows have inconsistent lengths"
            )
        bias = finite_array(spec.get("bias", np.zeros(weight.shape[0])),
                            f"layer {i}: bias", ValidationError)
        alpha = spec.get("alpha", 0.0)
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise ValidationError(f"layer {i}: alpha must be a number, got {alpha!r}")
        if weight.shape[1] != prev_dim:
            raise ValidationError(
                f"layer {i}: weight expects input dim {weight.shape[1]}, "
                f"chain provides {prev_dim}"
            )
        try:
            layers.append(Layer(weight, bias, act, float(alpha)))
        except ValidationError as exc:
            raise ValidationError(f"layer {i}: {exc}") from exc
        prev_dim = weight.shape[0]
    return CpaNetwork(name=str(data["name"]), layers=tuple(layers))


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

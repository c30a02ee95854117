"""Architecture, activations, forward pass, square loss and its closed-form gradient.

The network has l1 nonlinear layers followed by l2 linear layers and no bias
terms. The smoothed leaky ReLU is the Gaussian-mollified max(gamma*u, u); it is
evaluated in closed form via the standard normal pdf/cdf (the mollifying kernel
is a Gaussian of standard deviation (1-gamma)/(sqrt(2*pi)*beta)). The cdf is
Hart's rational approximation (Hart et al. 1968, algorithm 5666, as given by
West 2005), evaluated in place with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Phi(-z) = exp(-z^2/2) * P(z) / Q(z) for z >= 0, coefficients of z^0, z^1, ...
_HART_P = (220.206867912376, 221.213596169931, 112.079291497871, 33.912866078383,
           6.37396220353165, 0.700383064443688, 0.0352624965998911)
_HART_Q = (440.413735824752, 793.826512519948, 637.333633378831, 296.564248779674,
           86.7807322029461, 16.064177579207, 1.75566716318264, 0.0883883476483184)
_Z_MAX = 40.0  # Phi(-40) is below the smallest double
ACTIVATION_GRID = (-50.0, 50.0, 2001)  # np.linspace arguments of the activation checks


@dataclass(frozen=True)
class ActivationSpec:
    kind: str  # smoothed_leaky_relu | leaky_relu | relu
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("smoothed_leaky_relu", "leaky_relu", "relu"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind in ("smoothed_leaky_relu", "leaky_relu"):
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ValueError("gamma must lie in (0, 1)")
        if self.kind == "smoothed_leaky_relu":
            if self.beta is None or self.beta < 1.0:
                raise ValueError("beta must be >= 1")

    @cached_property
    def kernel_sd(self) -> float:
        """Standard deviation of the mollifying Gaussian."""
        return (1.0 - self.gamma) / (_SQRT_2PI * self.beta)

    @cached_property
    def shift(self) -> float:
        """Additive constant of the smoothed activation."""
        return (1.0 - self.gamma) ** 2 / (2.0 * math.pi * self.beta)

    @cached_property
    def _cdf_coefs(self) -> tuple:
        """The smoothed kernel's constants for t = min(|x|, 40 s): (40 s,
        -1/(2 s^2), (1-gamma) s / sqrt(2 pi), P's coefficients, Q's below its
        leading 1, (1-gamma)/2, gamma + (1-gamma)/2, shift). P and Q are
        Hart's in t = s z, highest power first, scaled so that Q is monic and
        e * P(t) / Q(t) = (1-gamma) Phi(-z) for e = (1-gamma) s phi(z).

        Each constant is a 0-d float64 array, not a Python float: a ufunc
        converts a float operand on every call, which costs about 0.25 us
        (np.add of 512 entries: 785 ns with a float, 547 ns with a 0-d
        array), and a nonlinear layer's act_grad and act_apply have 20 such
        operands."""
        s, lead = self.kernel_sd, _HART_Q[-1]
        p = [c * s ** (6 - k) * _SQRT_2PI / lead for k, c in enumerate(_HART_P)][::-1]
        q = [c * s ** (7 - k) / lead for k, c in enumerate(_HART_Q[:-1])][::-1]
        half, f = 0.5 * (1.0 - self.gamma), np.array
        return (f(_Z_MAX * s), f(-0.5 / (s * s)), f((1.0 - self.gamma) * s / _SQRT_2PI),
                tuple(map(f, p)), tuple(map(f, q)), f(half), f(self.gamma + half), f(self.shift))


def act_apply(spec: ActivationSpec, x, dact=None, scratch=None):
    """Elementwise activation; accepts scalars or arrays.

    The smoothed activation is written through its derivative,
    sigma(x) = x * sigma'(x) + (1 - gamma) * s * phi(x / s) - shift, with s the
    kernel's standard deviation and phi the standard normal pdf. A caller that
    ran dact = act_grad(spec, x, dact, scratch) passes both: the pdf term is
    then read from scratch[0], and sigma(x) is written over the float64 array
    x with no array allocated. Otherwise act_grad is called here on a copy.
    relu and leaky_relu ignore dact.
    """
    if scratch is None:
        x = np.array(x, dtype=np.float64)
        scratch = (np.empty_like(x), np.empty_like(x))
        dact = None
    if spec.kind == "relu":
        return np.maximum(x, 0.0, out=x)
    if spec.kind == "leaky_relu":
        return np.maximum(np.multiply(x, spec.gamma, scratch[0]), x, out=x)
    if dact is None:
        dact = act_grad(spec, x, None, scratch)
    np.multiply(x, dact, x)
    np.add(x, scratch[0], x)
    return np.subtract(x, spec._cdf_coefs[-1], x)


def act_grad(spec: ActivationSpec, x, out=None, work=None):
    """Elementwise activation derivative (relu derivative at 0 is 0), into
    `out` if given, a float64 array of x's shape, with no array allocated.
    The smoothed one, gamma + (1 - gamma) Phi(x / s), uses `work`, a pair
    of float64 arrays of x's shape, and leaves e = (1 - gamma) s phi(x / s)
    in work[0] for act_apply."""
    if out is None:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
    if spec.kind == "relu":  # 1 where x > 0, else 0 (NaN too)
        np.fmax(np.heaviside(x, 0.0, out), 0.0, out)
    elif spec.kind == "leaky_relu":  # 1 where x >= 0, else gamma (NaN too)
        np.fmax(np.heaviside(x, 1.0, out), spec.gamma, out)
    else:
        _smoothed_grad(spec, x, out, (np.empty_like(x), np.empty_like(x)) if work is None
                       else work)
    return out


def _smoothed_grad(spec: ActivationSpec, x, out, work) -> None:
    """gamma + (1-gamma)/2 + copysign((1-gamma)/2 - (1-gamma) Phi(-z), x) for
    z = min(|x| / s, 40), with Phi(-z) by two Horner loops in t = s z. Every
    ufunc but np.minimum (where it is deprecated) takes `out` positionally."""
    cap, k, c, p, q, half, mid, _ = spec._cdf_coefs
    mul, add = np.multiply, np.add
    e, t = work
    np.minimum(np.abs(x, t), cap, out=t)
    add(mul(t, p[0], out), p[1], out)
    for a in p[2:]:
        add(mul(out, t, out), a, out)
    add(t, q[0], e)
    for a in q[1:]:
        add(mul(e, t, e), a, e)
    np.divide(out, e, out)  # P / Q
    np.exp(mul(np.square(t, e), k, e), e)
    mul(mul(e, c, e), out, out)  # (1 - gamma) Phi(-z)
    add(np.copysign(np.subtract(half, out, out), x, out), mid, out)


def check_activation_bounds(spec: ActivationSpec) -> dict:
    """Numerical check of the derivative range, curvature cap and |sigma(x)| <= |x|.

    The |sigma(x)| <= |x| property is checked on ACTIVATION_GRID rather than assumed.
    """
    xs = np.linspace(*ACTIVATION_GRID)
    d = act_grad(spec, xs)
    out = {
        "deriv_min": float(d.min()),
        "deriv_max": float(d.max()),
        "deriv_in_range": bool(d.min() >= (spec.gamma or 0.0) - 1e-12 and d.max() <= 1.0 + 1e-12),
    }
    h = xs[1] - xs[0]
    out["deriv_lipschitz_est"] = float(np.max(np.abs(np.diff(d)) / h))
    if spec.kind == "smoothed_leaky_relu":
        out["deriv_lipschitz_ok"] = bool(out["deriv_lipschitz_est"] <= spec.beta * (1 + 1e-6))
    vals = act_apply(spec, xs)
    viol = np.abs(vals) - np.abs(xs)
    out["abs_bound_max_violation"] = float(viol.max())
    out["abs_bound_ok"] = bool(viol.max() <= 1e-12)
    return out


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    widths: tuple  # n_1 .. n_L
    l1: int
    l2: int
    activation: ActivationSpec

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.l1 < 0 or self.l2 < 0 or self.l1 + self.l2 != len(self.widths):
            raise ValueError("l1 + l2 must equal the number of widths")
        if self.l1 + self.l2 == 0:
            raise ValueError("network must have at least one layer")
        if any(w <= 0 for w in self.widths) or self.input_dim <= 0:
            raise ValueError("dimensions must be positive")

    @property
    def depth(self) -> int:
        return self.l1 + self.l2

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def layer_shape(self, layer: int) -> tuple:
        """Shape of W_layer, 1-based."""
        n_in = self.input_dim if layer == 1 else self.widths[layer - 2]
        return (self.widths[layer - 1], n_in)

    def is_pyramidal(self, n_samples: int) -> bool:
        """n1 >= N and non-increasing widths from the second layer on."""
        w = self.widths
        return w[0] >= n_samples and all(w[i] >= w[i + 1] for i in range(1, len(w) - 1))


@dataclass
class ParamSet:
    weights: list = field(default_factory=list)  # W_1 .. W_L

    def copy(self) -> "ParamSet":
        return ParamSet([w.copy() for w in self.weights])

    def norm(self) -> float:
        return math.sqrt(sum(float(np.sum(w * w)) for w in self.weights))

    def dist(self, other: "ParamSet") -> float:
        return math.sqrt(sum(float(np.sum((a - b) ** 2))
                             for a, b in zip(self.weights, other.weights)))

    def check_shapes(self, cfg: NetworkConfig) -> None:
        if len(self.weights) != cfg.depth:
            raise ValueError(f"expected {cfg.depth} weight matrices, got {len(self.weights)}")
        for layer, w in enumerate(self.weights, start=1):
            if w.shape != cfg.layer_shape(layer):
                raise ValueError(
                    f"layer {layer}: weight shape {w.shape} != expected {cfg.layer_shape(layer)}")


@dataclass
class ForwardTrace:
    """The forward quantities of a state. z[l] is layer l's output (Z_0 the
    input); layer l reads ins[l-1], the rows of z[l-1] of its members (all of
    z[l-1] without a member axis), and backprop reads ins_t[l-1], their
    transposes: views of z built once, with the trace."""
    z: list       # Z_0 .. Z_L
    dact: list    # act_grad at the preactivations W_l Z_{l-1} of the l1 nonlinear layers
    scratch: list | None = None  # caller buffers only: per nonlinear layer, a work pair
    ins: list = field(init=False)
    ins_t: list = field(init=False)

    def __post_init__(self):
        self.ins = [lo[:len(hi)] if lo.ndim == 3 else lo for lo, hi in zip(self.z, self.z[1:])]
        self.ins_t = [a.swapaxes(-1, -2) for a in self.ins]


def forward(cfg: NetworkConfig, params: ParamSet, x: np.ndarray,
            out: ForwardTrace | None = None) -> ForwardTrace:
    """Every forward quantity of a state: the layer outputs, and the
    activation's derivative at the nonlinear layers' preactivations, which
    backprop and the NTK tangents read. Preactivations are not kept.

    Weights may carry a leading member axis, (B_l, n_l, n_{l-1}) for layer l,
    which reads the first B_l members of the layer below. `out` is a trace of
    caller-given buffers, z[0] being x, with the bound views of its inputs:
    z[l] is written over the preactivation, and nothing is checked or
    allocated. Without it, x, a (d, N) array, and the weights are checked, z and
    dact allocated, and a work pair made per nonlinear layer and dropped after it.
    """
    if out is None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != cfg.input_dim:
            raise ValueError(f"input has {x.shape[0]} rows, network expects {cfg.input_dim}")
        params.check_shapes(cfg)
        z = [x] + [np.empty((n, x.shape[1])) for n in cfg.widths]
        out = ForwardTrace(z, [np.empty_like(a) for a in z[1:cfg.l1 + 1]])
    act = cfg.activation
    for layer, w in enumerate(params.weights):
        pre = np.matmul(w, out.ins[layer], out.z[layer + 1])
        if layer < cfg.l1:
            work = out.scratch[layer] if out.scratch else np.empty((2,) + pre.shape)
            act_apply(act, pre, act_grad(act, pre, out.dact[layer], work), work)
            del work
    return out


def _c0(resid: np.ndarray) -> float:
    """c_0 = 0.5*||Z_L - Y||_F^2 of the residual by `densemat.fro_norm`'s dot
    product, so sqrt(2 c_0) is fro_norm(resid) bit for bit; the only c_0."""
    flat = resid.ravel(order="K")
    return 0.5 * float(flat @ flat)


def loss(cfg: NetworkConfig, params: ParamSet, x, y, lam: float = 0.0,
         trace: ForwardTrace | None = None) -> tuple:
    """Returns (c_lambda, c_0), c_0 = 0.5*||Z_L - Y||_F^2 from `_c0`."""
    y = np.asarray(y, dtype=np.float64)
    if trace is None:
        trace = forward(cfg, params, x)
    c0 = _c0(trace.z[-1] - y)
    clam = c0 + 0.5 * lam * params.norm() ** 2
    return clam, c0


def backprop(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
             cotangent: np.ndarray, out: list | None = None) -> ParamSet:
    """Gradients of <cotangent, Z_L> with respect to every weight matrix.

    `out`, gradient buffers for a trace of buffers (see `forward`), makes
    each layer's delta in place in trace.z[l]: rows past B_{l+1} hold the
    cotangent of the members whose output is layer l, and `cotangent` is z[-1].
    """
    buffered = out is not None
    grads = out if buffered else [None] * cfg.depth
    delta = cotangent
    for layer in range(cfg.depth - 1, -1, -1):
        if layer < cfg.l1:
            delta = np.multiply(delta, trace.dact[layer], delta if buffered else None)
        grads[layer] = np.matmul(delta, trace.ins_t[layer], grads[layer])
        if layer > 0:
            delta = np.matmul(params.weights[layer].swapaxes(-1, -2), delta,
                              trace.ins[layer] if buffered else None)
            if buffered:
                delta = trace.z[layer]
    return ParamSet(grads)


def gradient(cfg: NetworkConfig, params: ParamSet, x, y, lam: float = 0.0) -> ParamSet:
    """Gradient of the lambda-regularized square loss."""
    y = np.asarray(y, dtype=np.float64)
    trace = forward(cfg, params, x)
    g = backprop(cfg, params, trace, trace.z[-1] - y)
    if lam != 0.0:
        g = ParamSet([gw + lam * w for gw, w in zip(g.weights, params.weights)])
    return g


def partial_product(cfg: NetworkConfig, params: ParamSet, m: int, l: int) -> np.ndarray:
    """W_m ... W_l over the linear range (1-based layers, l <= m)."""
    if not (cfg.l1 + 1 <= l <= m <= cfg.depth):
        raise ValueError(
            f"partial product indices (m={m}, l={l}) outside linear range "
            f"[{cfg.l1 + 1}, {cfg.depth}]")
    out = params.weights[l - 1]
    for layer in range(l + 1, m + 1):
        out = params.weights[layer - 1] @ out
    return out

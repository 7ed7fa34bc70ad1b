"""Objective assembly and the inversion drivers.

Two solvers share the physics interface (predict / gradient, plus
sensitivity for the model-space inversion):

* the reparameterized inversion, where a coordinate network produces the
  model and Adam updates its weights through a surrogate loss built from
  the frozen data-misfit gradient, and
* conventional model-space inversion, gradient descent (tomography) or
  inexact Gauss-Newton with optional IRLS sparse norms (DC resistivity).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nfinv.blas import one_thread
from nfinv.errors import SolverError
from nfinv.neural_field import (JacobianOperator, Mlp, forward, get_weights,
                                save_checkpoint, set_weights)
# unused by the epoch loop, but benchmark/layers.py wraps inversion.vjp by name
from nfinv.neural_field import vjp  # noqa: F401


def data_misfit(w_d, d_obs: np.ndarray,
                d_pred: np.ndarray) -> tuple[float, np.ndarray]:
    """0.5 || W_d (d_obs - d_pred) ||^2 and its gradient w.r.t. d_pred.

    ``w_d`` is the diagonal of W_d (scalar or per-datum array).  The
    returned cotangent is -W_d^T W_d (d_obs - d_pred), ready for chaining
    through a forward map's adjoint.
    """
    d_obs = np.asarray(d_obs, dtype=float)
    d_pred = np.asarray(d_pred, dtype=float)
    if d_obs.shape != d_pred.shape:
        raise ValueError("observed and predicted data sizes differ")
    w = np.broadcast_to(np.asarray(w_d, dtype=float), d_obs.shape)
    r = d_obs - d_pred
    value = 0.5 * float(np.sum((w * r) ** 2))
    return value, -(w * w) * r


def cooling_beta(t: float, tau: float) -> float:
    """Exponential trade-off decay beta(t) = exp(-t / tau), beta(0) = 1."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(np.exp(-t / tau))


# the IRLS stabilization epsilon of the network driver
IRLS_EPSILON = 1e-4


def _difference_operator(nx: int, nz: int, dx: float, dz: float):
    """First-difference operators Dx, Dz over the core grid, scaled by
    spacing; each row is one face between two neighboring cells."""
    def d1(k, h):
        return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(k - 1, k))
    return (sp.kron(sp.identity(nz), d1(nx, dx), format="csr"),
            sp.kron(d1(nz, dz), sp.identity(nx), format="csr"))


class Regularization:
    """Smallness plus directional smoothness with per-term norm exponents:
    the penalty, its gradient, and its (IRLS) Hessian.

    The penalty sums weighted-quadratic terms, one per row (alpha, p, D) of
    ``terms``, for each of smallness (D is None, residual m - m_ref per
    cell), x- and z-smoothness (D = Dx or Dz, residual D m per face) whose
    alpha is positive.  Row k weighs its squared residual by the cell
    volume, ``term_weights[k]`` (the cell weights, averaged over the two
    cells of each face for a difference term) and ``irls_weights[k]``.
    Exponents below 2 are handled by iteratively reweighted least squares
    (``update_irls``); p = 0 uses the same limit form.
    """

    def __init__(self, nx: int, nz: int, dx: float, dz: float, *,
                 alpha_s: float = 0.0, alpha_x: float = 0.0,
                 alpha_z: float = 0.0, p_s: float = 2.0, p_x: float = 2.0,
                 p_z: float = 2.0, m_ref: float = 0.0):
        if min(alpha_s, alpha_x, alpha_z) < 0:
            raise ValueError("term weights must be non-negative")
        for p in (p_s, p_x, p_z):
            if not 0.0 <= p <= 2.0:
                raise ValueError(f"norm exponent must lie in [0, 2], got {p}")
        self.n = nx * nz
        self.volume = dx * dz  # uniform core cells
        self.m_ref = m_ref
        Dx, Dz = _difference_operator(nx, nz, dx, dz)
        self.terms = [term for term in ((alpha_s, p_s, None),
                                        (alpha_x, p_x, Dx),
                                        (alpha_z, p_z, Dz))
                      if term[0] > 0]
        self.set_cell_weights(np.ones(self.n))
        self.irls_weights = [np.ones_like(w) for w in self.term_weights]

    def set_cell_weights(self, w: np.ndarray) -> None:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"need {self.n} cell weights, got {w.shape}")
        self.term_weights = [
            w if D is None else ((D != 0).astype(float) @ w) / 2.0
            for _, _, D in self.terms]

    def _residual(self, m: np.ndarray, D) -> np.ndarray:
        return m - self.m_ref if D is None else D @ m

    def update_irls(self, m: np.ndarray, epsilon: float) -> None:
        """Refresh IRLS weights (r^2 + epsilon^2)^(p/2 - 1) at the current
        model (ones for p = 2)."""
        eps2 = epsilon * epsilon
        self.irls_weights = [(self._residual(m, D) ** 2 + eps2) ** (p / 2 - 1)
                             for _, p, D in self.terms]

    def value_and_grad(self, m: np.ndarray) -> tuple[float, np.ndarray]:
        value = 0.0
        grad = np.zeros_like(m)
        for (alpha, _, D), tw, iw in zip(self.terms, self.term_weights,
                                         self.irls_weights):
            r = self._residual(m, D)
            w = self.volume * tw * iw
            value += alpha * float(np.sum(w * r * r))
            # two expressions: the smallness one keeps its own round-off
            grad += (2.0 * alpha * w * r if D is None
                     else 2.0 * alpha * (D.T @ (w * r)))
        return value, grad

    def hessian(self) -> sp.csr_matrix:
        """Hessian of the weighted-quadratic form at the current weights."""
        H = sp.csr_matrix((self.n, self.n))
        for (alpha, _, D), tw, iw in zip(self.terms, self.term_weights,
                                         self.irls_weights):
            W = sp.diags(2.0 * alpha * self.volume * tw * iw)
            H = H + (W if D is None else D.T @ W @ D)
        return H.tocsr()


class Adam:
    """Adam on a flat parameter vector, bias-corrected moments."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, n_params: int, learning_rate: float = 1e-3):
        self.lr = learning_rate
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return w - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class InversionResult:
    """Recovered model plus per-epoch traces."""

    model: np.ndarray
    misfit_history: np.ndarray
    beta_history: np.ndarray
    reg_history: np.ndarray
    wall_clock: np.ndarray
    converged: bool
    final_misfit: float
    status: str = "ok"
    # Gauss-Newton CG exit code per outer iteration (> 0: maxiter reached)
    cg_info: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def n_epochs(self) -> int:
        return len(self.misfit_history)


@one_thread()
def nfs_invert(simulator, d_obs: np.ndarray, w_d, mlp: Mlp, Z,
               epochs: int, tau: float | None = None,
               learning_rate: float = 1e-3,
               reg: Regularization | None = None,
               target_misfit: float | None = None,
               checkpoint_every: int = 0,
               checkpoint_dir=None) -> InversionResult:
    """Optimize the network weights against the physics (Adam, surrogate loss).

    Per epoch: cool the trade-off to ``cooling_beta(t, tau)``, linearize
    the network at its weights (one forward pass, whose cache the backward
    pass reuses), evaluate the data misfit and its model-space gradient
    through the physics adjoint, reweight ``reg`` at the model with
    ``IRLS_EPSILON``, then backpropagate (1 - beta) * J_v + beta *
    grad phi_m(m) through the network only and take one Adam step.  With
    no ``tau``, beta is 0 throughout (the tomography configuration).
    A physics failure or a non-finite misfit, at an epoch or of the final
    model, raises SolverError after the weights are saved to
    ``diagnostic.ckpt`` in ``checkpoint_dir``.

    The run holds the BLAS pools at one thread (``nfinv.blas.one_thread``).
    """
    adam = Adam(mlp.param_count, learning_rate)
    w = get_weights(mlp)
    misfits, betas, regs, clocks = [], [], [], []
    converged = False

    def evaluate(m, t: int, where: str):
        try:
            phi_d, cot = data_misfit(w_d, d_obs, simulator.predict(m))
            if not np.isfinite(phi_d):
                raise SolverError(f"non-finite misfit {where}")
        except SolverError:
            # the weights that produced the bad model, tagged with the epoch
            if checkpoint_dir is not None:
                save_checkpoint(f"{checkpoint_dir}/diagnostic.ckpt", mlp, t)
            raise
        return phi_d, cot

    for t in range(1, epochs + 1):
        t0 = time.perf_counter()
        beta_t = cooling_beta(t, tau) if tau is not None else 0.0
        lin = JacobianOperator(mlp, Z)
        m = lin.m
        phi_d, cot = evaluate(m, t, f"at epoch {t}")

        phi_m = 0.0
        g_m = (1.0 - beta_t) * simulator.gradient(cot)
        if reg is not None and beta_t != 0.0:
            reg.update_irls(m, IRLS_EPSILON)
            phi_m, g_reg = reg.value_and_grad(m)
            g_m = g_m + beta_t * g_reg

        misfits.append(phi_d)
        betas.append(beta_t)
        regs.append(phi_m)
        if checkpoint_every and checkpoint_dir is not None \
                and t % checkpoint_every == 0:
            save_checkpoint(f"{checkpoint_dir}/epoch_{t:06d}.ckpt", mlp, t)
        if target_misfit is not None and phi_d <= target_misfit:
            clocks.append(time.perf_counter() - t0)
            converged = True
            break

        g_w = lin.rmatvec(g_m)
        del lin  # one epoch's layer inputs held at a time
        w = adam.step(w, g_w)
        set_weights(mlp, w)
        clocks.append(time.perf_counter() - t0)

    model = forward(mlp, Z)
    final_misfit, _ = evaluate(model, len(misfits),
                               f"of the final model after epoch {len(misfits)}")
    return InversionResult(
        model=model,
        misfit_history=np.array(misfits),
        beta_history=np.array(betas),
        reg_history=np.array(regs),
        wall_clock=np.array(clocks),
        converged=converged,
        final_misfit=final_misfit,
    )


SENSITIVITY_FLOOR = 1e-3
# the inner conjugate-gradient solve of each Gauss-Newton step
GN_CG_MAXITER = 20
GN_CG_RTOL = 1e-3
# Gauss-Newton's IRLS epsilon, fixed (Fournier & Oldenburg 2019, GJI 218)
GN_IRLS_EPSILON = 1e-3
# the power iteration that sets the first gradient-descent step; its seed
# fixes the case-1/2 conventional runs
_POWER_ITERATIONS = 12
_POWER_SEED = 1


def sensitivity_weights(J, w_d) -> np.ndarray:
    """Cell weights: the column norms of W_d J, max-normalized.

    J is a simulator's explicit ``sensitivity()``, dense (DC resistivity)
    or sparse (the tomography ray matrix); the weights are the square root
    of diag(J^T W_d^2 J), floored at ``SENSITIVITY_FLOOR`` of their maximum.
    """
    w2 = np.broadcast_to(np.asarray(w_d, dtype=float) ** 2, (J.shape[0],))
    squared = J.multiply(J) if sp.issparse(J) else J * J
    weights = np.sqrt(squared.T @ w2)
    return np.maximum(weights / weights.max(), SENSITIVITY_FLOOR)


def _power_iteration_step(hv, n: int) -> float:
    """Largest eigenvalue estimate of a symmetric PSD operator."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(_POWER_ITERATIONS):
        u = hv(v)
        lam = float(v @ u)
        norm = np.linalg.norm(u)
        if norm == 0:
            return 1.0
        v = u / norm
    return max(lam, 1e-300)


@one_thread()
def conventional_invert(simulator, d_obs: np.ndarray, w_d, m0: np.ndarray,
                        reg: Regularization | None = None,
                        optimizer: str = "gradient_descent", *,
                        sensitivity_weighting: bool = False,
                        max_iterations: int = 200,
                        beta0: float = 1.0,
                        beta_cooling: float = 1.0,
                        target_misfit: float | None = None) -> InversionResult:
    """Model-space inversion from a reference starting model.

    gradient_descent: steepest descent with Armijo backtracking.  The
    first trial step is the inverse of a Lipschitz power-iteration
    estimate; after each accepted step the next trial step is twice the
    accepted one, capped at 64 times the previous trial step.
    gauss_newton: inexact Newton with conjugate-gradient inner solves
    (``GN_CG_MAXITER`` iterations, relative tolerance ``GN_CG_RTOL``) on
    J^T W^2 J + beta * H_reg, a backtracking line search, multiplicative
    beta cooling between outer iterations and, if any norm exponent is
    below 2, IRLS: unit weights for the first (l2) step, then weights at
    each model with the fixed epsilon ``GN_IRLS_EPSILON``.  Each CG product
    is two matrix-vector products with the simulator's explicit
    ``sensitivity()``; the CG exit codes are returned as ``cg_info``.
    ``sensitivity_weighting`` folds exact forward-sensitivity weights
    (``sensitivity_weights``) into every term of ``reg`` at ``m0``.

    A line-search trial whose ``predict`` raises SolverError is rejected
    like one that does not decrease the objective.

    The simulator is linearized once per accepted model: the prediction
    of the accepted line-search trial is kept, so an iteration makes one
    ``predict`` per trial and none at its start, and the final misfit is
    that of the last accepted prediction.

    With ``target_misfit`` the run stops at the first iterate whose data
    misfit is at or below the target and returns that iterate as is; there
    is no interpolation toward the target.  ``misfit_history[k]`` is the
    misfit after k accepted steps, so ``max_iterations=k`` reproduces that
    iterate as the final model.

    The run holds the BLAS pools at one thread (``nfinv.blas.one_thread``).
    """
    if optimizer not in ("gradient_descent", "gauss_newton"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    m = np.asarray(m0, dtype=float).copy()
    w = np.asarray(w_d, dtype=float)
    beta_t = beta0
    misfits, betas, regs, clocks, cg_info = [], [], [], [], []
    converged = False
    status = "ok"

    use_irls = reg is not None and any(p < 2.0 for _, p, _ in reg.terms)
    if use_irls:
        reg.irls_weights = [np.ones_like(tw) for tw in reg.term_weights]

    d_pred = simulator.predict(m)
    if reg is not None and sensitivity_weighting:
        reg.set_cell_weights(sensitivity_weights(simulator.sensitivity(), w))

    def normal_matvec():
        """v -> (J^T W^2 J + beta H_reg) v at the current linearization."""
        J = simulator.sensitivity()
        h_reg = reg.hessian() if reg is not None and beta_t != 0 else None

        def matvec(v):
            out = J.T @ ((w * w) * (J @ v))
            if h_reg is not None:
                out = out + beta_t * (h_reg @ v)
            return out
        return matvec

    step0 = None
    for it in range(1, max_iterations + 1):
        t0 = time.perf_counter()
        if use_irls and it > 1:
            reg.update_irls(m, GN_IRLS_EPSILON)
        phi_d, cot = data_misfit(w, d_obs, d_pred)
        phi_m, g_reg = reg.value_and_grad(m) if reg is not None else (0.0, 0.0)
        if not np.isfinite(phi_d):
            raise SolverError(f"non-finite misfit at iteration {it}")
        misfits.append(phi_d)
        betas.append(beta_t)
        regs.append(phi_m)
        if target_misfit is not None and phi_d <= target_misfit:
            clocks.append(time.perf_counter() - t0)
            converged = True
            break

        grad = simulator.gradient(cot) + beta_t * g_reg
        total0 = phi_d + beta_t * phi_m

        if optimizer == "gradient_descent":
            if step0 is None:
                step0 = 1.0 / _power_iteration_step(normal_matvec(), len(m))
            direction = -grad
            step = step0
        else:
            op = spla.LinearOperator((len(m), len(m)), matvec=normal_matvec())
            direction, info = spla.cg(op, -grad, rtol=GN_CG_RTOL,
                                      maxiter=GN_CG_MAXITER)
            cg_info.append(info)
            step = 1.0

        # Armijo backtracking on the total objective
        slope = float(grad @ direction)
        if slope >= 0:  # CG returned a non-descent direction; fall back
            direction = -grad
            slope = -float(grad @ grad)
            step = step0 if step0 is not None else 1.0
        accepted = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(30):
                trial = m + step * direction
                try:
                    d_trial = simulator.predict(trial)
                except SolverError:  # a trial the physics cannot solve
                    step *= 0.5
                    continue
                phi_d_t, _ = data_misfit(w, d_obs, d_trial)
                phi_m_t = reg.value_and_grad(trial)[0] if reg is not None else 0.0
                if phi_d_t + beta_t * phi_m_t <= total0 + 1e-4 * step * slope:
                    accepted = True
                    break
                step *= 0.5
        if not accepted:
            status = "line_search_failed"
            clocks.append(time.perf_counter() - t0)
            break
        # the simulator is now linearized at the accepted model
        m, d_pred = trial, d_trial
        if optimizer == "gradient_descent":
            step0 = min(step * 2.0, step0 * 64)
        beta_t /= beta_cooling
        clocks.append(time.perf_counter() - t0)

    final_misfit, _ = data_misfit(w, d_obs, d_pred)
    return InversionResult(
        model=m,
        misfit_history=np.array(misfits),
        beta_history=np.array(betas),
        reg_history=np.array(regs),
        wall_clock=np.array(clocks),
        converged=converged,
        final_misfit=final_misfit,
        status=status,
        cg_info=np.array(cg_info, dtype=int),
    )

"""2D finite-volume DC resistivity: forward solves and adjoint gradients.

Discretizes div(sigma grad phi) = -q with cell-centered finite volumes on a
tensor mesh.  Face conductances use harmonic averaging of conductivity
(series half-cell resistances), the top boundary is no-flux (ground
surface) and the left/right/bottom boundaries hold phi = 0, so the system
matrix is symmetric positive definite.

Physics is a pure 2D line source: currents are amperes per meter of strike
and the uniform half-space potential is phi = -(rho I / pi) ln r + C.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nfinv.blas import scipy_blas_one_thread
from nfinv.errors import GeometryError, SolverError
from nfinv.mesh import TensorMesh, embed_core

log = logging.getLogger(__name__)

LN10 = np.log(10.0)


@dataclass(frozen=True)
class DcrSurvey:
    """Surface dipole-dipole geometry.

    ``src_dipoles`` holds (A, B) electrode-index pairs; ``rx_dipoles[i]``
    lists the (M, N) pairs measured for source i.  Datum ordering follows
    sources in order, then that source's receivers in order.
    """

    electrode_x: np.ndarray
    src_dipoles: tuple[tuple[int, int], ...]
    rx_dipoles: tuple[tuple[tuple[int, int], ...], ...]
    current: float = 1.0  # A per meter of strike (line source)

    @property
    def n_data(self) -> int:
        return sum(len(r) for r in self.rx_dipoles)

    @cached_property
    def abmn(self) -> np.ndarray:
        """Survey index: electrodes (A, B, M, N) of each datum, one per row."""
        rows = [(a, b, m, n) for (a, b), rx in zip(self.src_dipoles,
                                                   self.rx_dipoles)
                for m, n in rx]
        return np.array(rows, dtype=int).reshape(-1, 4)


def build_dipole_dipole_survey(line_length: float, station_sep: float,
                               max_rx: int, x0: float = 0.0,
                               current: float = 1.0) -> DcrSurvey:
    """Standard dipole-dipole enumeration along a surface line.

    Electrodes at x0 + k * station_sep.  Each adjacent pair (i, i+1)
    transmits; receiver dipoles (j, j+1) start one station beyond B and
    walk outward, at most ``max_rx`` of them.
    """
    if station_sep <= 0 or line_length <= 0:
        raise ValueError("line_length and station_sep must be positive")
    if max_rx < 1:
        raise ValueError("max_rx must be >= 1")
    n_elec = int(np.floor(line_length / station_sep + 1e-9)) + 1
    xs = x0 + np.arange(n_elec) * station_sep

    src, rx = [], []
    for i in range(n_elec - 1):
        pairs = []
        for j in range(i + 2, min(i + 2 + max_rx, n_elec - 1)):
            pairs.append((j, j + 1))
        if pairs:
            src.append((i, i + 1))
            rx.append(tuple(pairs))
    return DcrSurvey(xs, tuple(src), tuple(rx), current)


@dataclass
class FvSystem:
    """Assembled conductance Laplacian with a reusable factorization."""

    mesh: TensorMesh
    sigma: np.ndarray
    L: sp.csr_matrix
    _lu: spla.SuperLU = field(repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Direct solve with residual check and an iterative fallback."""
        with scipy_blas_one_thread():
            x = self._lu.solve(b)
        bn = np.linalg.norm(b, axis=0)
        res = np.linalg.norm(self.L @ x - b, axis=0)
        bad = res > 1e-8 * np.maximum(bn, 1e-300)
        if np.any(bad):
            rel = np.max(res / np.maximum(bn, 1e-300))
            log.warning("FV direct solve: %d column(s) above the 1e-8 "
                        "relative residual (worst %.3e), refined by CG",
                        np.count_nonzero(bad), rel)
            x2 = np.atleast_2d(x.T).T.copy()
            b2 = np.atleast_2d(b.T).T
            for k in np.flatnonzero(np.atleast_1d(bad)):
                xk, info = spla.cg(self.L, b2[:, k], x0=x2[:, k], rtol=1e-10,
                                   maxiter=10 * self.L.shape[0])
                if info != 0:
                    raise SolverError(f"FV solve failed: direct residual "
                                      f"{rel:.3e}, cg info {info}")
                x2[:, k] = xk
            x = x2.reshape(x.shape)
        return x


def assemble_system(mesh: TensorMesh, sigma: np.ndarray) -> FvSystem:
    """Build and factorize the FV operator for a full-mesh conductivity."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.n_cells,):
        raise ValueError(f"sigma must have {mesh.n_cells} entries, "
                         f"got {sigma.shape}")
    if np.any(sigma <= 0):
        raise ValueError("conductivity must be positive everywhere")

    fi, fj, area, di, dj, bc, b_area, b_dist = mesh.faces
    g = area / (di / sigma[fi] + dj / sigma[fj])
    gb = b_area * sigma[bc] / b_dist

    rows = np.concatenate([fi, fj, fi, fj, bc])
    cols = np.concatenate([fi, fj, fj, fi, bc])
    vals = np.concatenate([g, g, -g, -g, gb])
    L = sp.coo_matrix((vals, (rows, cols)),
                      shape=(mesh.n_cells, mesh.n_cells)).tocsr()
    try:
        with scipy_blas_one_thread():
            lu = spla.splu(L.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    return FvSystem(mesh=mesh, sigma=sigma, L=L, _lu=lu)


def electrode_cells(mesh: TensorMesh, survey: DcrSurvey) -> np.ndarray:
    """Snap electrodes to the nearest core surface-cell centers.

    Raises GeometryError when an electrode lies outside the core region.
    Snap distances are logged at debug level.
    """
    x_lo, x_hi = mesh.core_x_extent
    core_cols = np.arange(mesh.n_pad, mesh.n_pad + mesh.nx_core)
    centers = mesh.x_centers[core_cols]
    cells = np.empty(len(survey.electrode_x), dtype=int)
    for k, ex in enumerate(survey.electrode_x):
        if not (x_lo - 1e-9 <= ex <= x_hi + 1e-9):
            raise GeometryError(
                f"electrode at x={ex} outside core extent [{x_lo}, {x_hi}]")
        j = int(np.argmin(np.abs(centers - ex)))
        cells[k] = core_cols[j]  # surface row, iz = 0
        snap = abs(centers[j] - ex)
        if snap > 1e-9:
            log.debug("electrode %d snapped %.3f m to x=%.2f", k, snap,
                      centers[j])
    return cells


class PolePotentials:
    """The DC forward map linearized at one conductivity model.

    Construction makes one solve with one column per electrode, the survey
    current injected at that electrode's cell: the pole potentials
    Phi = L^-1 (I E), shape (n_cells, n_elec) (Rücker, Günther & Spitzer
    2006, GJI 166).  A datum is the superposition
    d = P[M, A] - P[M, B] - P[N, A] + P[N, B] of the electrode potentials
    P = Phi[electrode cells].  L is symmetric, so by reciprocity the adjoint
    field of receiver dipole (M, N) is (Phi[:, M] - Phi[:, N]) / I
    (McGillivray & Oldenburg 1990, Geophys. Prosp. 38) and the derivative
    of a datum is -(Phi_M - Phi_N)^T dL (Phi_A - Phi_B) / I.  Neither
    derivative solves: ``gradient`` contracts the face potentials with the
    cotangent scattered onto electrode pairs (one product per call), and
    ``sensitivity`` forms the whole Jacobian, n_data x n_active, once per
    linearization for callers that take many products.  Derivatives are
    with respect to active-cell log10-conductivity; padding is frozen.
    """

    def __init__(self, system: FvSystem, survey: DcrSurvey,
                 cells: np.ndarray | None = None):
        if cells is None:
            cells = electrode_cells(system.mesh, survey)
        n_elec = len(cells)
        rhs = np.zeros((system.mesh.n_cells, n_elec))
        rhs[cells, np.arange(n_elec)] = survey.current
        # no reference to the system: its factorization is freed with it
        self.mesh = system.mesh
        self.sigma = system.sigma
        self.survey = survey
        self.phi = system.solve(rhs)
        self.data = self._gather(self.phi[cells])

    def _gather(self, p: np.ndarray) -> np.ndarray:
        """Dipole-dipole data from an electrode-by-electrode matrix."""
        a, b, m, n = self.survey.abmn.T
        return (p[m, a] - p[m, b]) - (p[n, a] - p[n, b])

    @cached_property
    def _dg(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dg/dsigma on either side of interior faces and at boundary faces."""
        fi, fj, area, di, dj, bc, b_area, b_dist = self.mesh.faces
        s = self.sigma
        g = area / (di / s[fi] + dj / s[fj])
        return (g * g * di / (area * s[fi] ** 2),
                g * g * dj / (area * s[fj] ** 2), b_area / b_dist)

    @property
    def _live_boundary(self) -> bool:
        """Whether a boundary face touches an active cell.

        The Dirichlet faces lie on the outermost left, right and bottom
        cells, which are frozen padding on every padded mesh; their terms
        then only reach cells the derivatives drop.
        """
        return bool(self.mesh.active_mask[self.mesh.faces[5]].any())

    def gradient(self, cotangent: np.ndarray) -> np.ndarray:
        """Gradient of (cotangent . data) w.r.t. active log10-conductivity."""
        v = np.asarray(cotangent, dtype=float)
        if v.shape != (self.survey.n_data,):
            raise ValueError(
                f"cotangent must have length {self.survey.n_data}")
        # W[e, e'] = sum of v over data with receiver electrode e and
        # source electrode e', signed as in _gather
        ne = self.phi.shape[1]
        a, b, m, n = self.survey.abmn.T
        W = np.bincount(np.concatenate([m * ne + a, m * ne + b,
                                        n * ne + a, n * ne + b]),
                        np.concatenate([v, -v, -v, v]),
                        minlength=ne * ne).reshape(ne, ne)
        fi, fj, *_, bc, _, _ = self.mesh.faces
        dg_i, dg_j, dgb = self._dg
        dphi = self.phi[fi] - self.phi[fj]
        wf = np.einsum("fe,fe->f", dphi @ W, dphi)
        nc = self.mesh.n_cells
        grad_sigma = np.bincount(fi, wf * dg_i, nc) \
            + np.bincount(fj, wf * dg_j, nc)
        if self._live_boundary:
            phib = self.phi[bc]
            wb = np.einsum("fe,fe->f", phib @ W, phib)
            grad_sigma += np.bincount(bc, wb * dgb, nc)
        grad_sigma *= -1.0 / self.survey.current
        act = self.mesh.active_indices
        return grad_sigma[act] * self.sigma[act] * LN10

    def _face_to_active(self, face_cells, dg) -> sp.csr_matrix:
        """Scatter of per-face values onto active cells, scaled to d/dm.

        Entry (c, f) is d(datum)/d(m_c) per unit potential product at face
        f: dg/dsigma of the face on cell c's side, times dsigma/dm and the
        -1/I of the superposition.
        """
        mesh = self.mesh
        col = np.full(mesh.n_cells, -1)
        col[mesh.active_indices] = np.arange(mesh.n_active)
        scale = self.sigma * (-LN10 / self.survey.current)
        faces = np.tile(np.arange(len(dg[0])), len(face_cells))
        cells = np.concatenate(face_cells)
        vals = np.concatenate(dg) * scale[cells]
        keep = col[cells] >= 0
        return sp.csr_matrix((vals[keep], (col[cells[keep]], faces[keep])),
                             shape=(mesh.n_active, len(dg[0])))

    @cached_property
    def sensitivity(self) -> np.ndarray:
        """Jacobian of the data w.r.t. active log10-conductivity.

        Shape (n_data, n_active).  Row d scatters the face-wise product of
        the receiver and source dipole potential drops onto cells.  The
        rows are formed one source dipole at a time, so the per-face
        temporaries hold only that source's receivers.
        """
        fi, fj, *_, bc, _, _ = self.mesh.faces
        dg_i, dg_j, dgb = self._dg
        terms = [(self.phi[fi] - self.phi[fj],
                  self._face_to_active((fi, fj), (dg_i, dg_j)))]
        if self._live_boundary:
            terms.append((self.phi[bc], self._face_to_active((bc,), (dgb,))))
        abmn = self.survey.abmn
        new_src = np.any(abmn[1:, :2] != abmn[:-1, :2], axis=1)
        edges = np.concatenate([[0], np.flatnonzero(new_src) + 1,
                                [len(abmn)]])
        J = np.empty((len(abmn), self.mesh.n_active))
        for d in map(slice, edges[:-1], edges[1:]):
            a, b = abmn[d.start, :2]
            m, n = abmn[d, 2], abmn[d, 3]
            J[d] = sum(C @ ((p[:, m] - p[:, n]) * (p[:, a] - p[:, b])[:, None])
                       for p, C in terms).T
        return J


class DcrSimulator:
    """Nonlinear forward map over active-cell log10-conductivity.

    ``predict`` reassembles and refactorizes the FV system for the given
    model and keeps its :class:`PolePotentials`, dropping the previous one
    before the solve when it holds a Jacobian.  ``gradient``, ``jvp`` and
    ``sensitivity`` linearize at the most recent predict without a solve;
    the explicit sensitivity is built on first use and kept until the next
    predict, so a caller that takes one adjoint per model never builds it
    (``jvp`` is ``sensitivity() @ dm``).
    """

    def __init__(self, mesh: TensorMesh, survey: DcrSurvey,
                 background_sigma: float):
        if background_sigma <= 0:
            raise ValueError("background conductivity must be positive")
        self.mesh = mesh
        self.survey = survey
        self.background_sigma = background_sigma
        self._cells = electrode_cells(mesh, survey)  # validates geometry
        self._poles: PolePotentials | None = None

    @property
    def n_data(self) -> int:
        return self.survey.n_data

    @property
    def n_model(self) -> int:
        return self.mesh.n_active

    def predict(self, m: np.ndarray) -> np.ndarray:
        """Data at model m; SolverError if 10**m is not finite and > 0."""
        m = np.asarray(m, dtype=float)
        sigma = 10.0 ** m
        n_bad = np.count_nonzero(~(np.isfinite(sigma) & (sigma > 0)))
        if n_bad:
            raise SolverError(
                f"model gives {n_bad} cell(s) a non-finite or non-positive "
                f"conductivity (m in [{np.min(m):.4g}, {np.max(m):.4g}])")
        sigma_full = embed_core(self.mesh, sigma, self.background_sigma)
        # A built Jacobian goes before the next factorization, which would
        # otherwise raise the peak RSS.  Without one the old fields stay
        # until the new ones exist: freeing them first lets the allocator
        # return their pages and fault them in again (~5,000 minor faults,
        # ~13 ms per full-scale predict).
        if self._poles is not None and "sensitivity" in vars(self._poles):
            self._poles = None
        self._poles = PolePotentials(assemble_system(self.mesh, sigma_full),
                                     self.survey, self._cells)
        return self._poles.data

    def _linearization(self, what: str) -> PolePotentials:
        if self._poles is None:
            raise SolverError(f"{what} requested before any predict")
        return self._poles

    def gradient(self, cotangent: np.ndarray) -> np.ndarray:
        return self._linearization("gradient").gradient(cotangent)

    def jvp(self, dm: np.ndarray) -> np.ndarray:
        """Derivative of the data along dm in active log10-conductivity."""
        dm = np.asarray(dm, dtype=float)
        if dm.shape != (self.mesh.n_active,):
            raise ValueError(
                f"dm must have {self.mesh.n_active} entries, got {dm.shape}")
        return self.sensitivity() @ dm

    def sensitivity(self) -> np.ndarray:
        """The data Jacobian J (n_data x n_active) at the last predict."""
        return self._linearization("sensitivity").sensitivity


def apparent_resistivity(survey: DcrSurvey, data: np.ndarray) -> np.ndarray:
    """2D line-source apparent resistivity for plotting.

    Uses the half-plane geometric factor: dV = (rho I / pi)
    ln(r_BM r_AN / (r_AM r_BN)).
    """
    xa, xb, xm, xn = survey.electrode_x[survey.abmn].T
    geom = np.log(np.abs(xm - xb) * np.abs(xn - xa)
                  / (np.abs(xm - xa) * np.abs(xn - xb)))
    return np.pi * np.asarray(data, dtype=float) / (survey.current * geom)


def write_dcr_data_csv(path, survey: DcrSurvey, data_v: np.ndarray,
                       uncertainty_v: np.ndarray) -> None:
    """Columns: A_x, B_x, M_x, N_x, dV_volts, uncertainty_volts, rho_app."""
    unc = np.broadcast_to(np.asarray(uncertainty_v, dtype=float),
                          np.shape(data_v))
    rho_app = apparent_resistivity(survey, data_v)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["A_x", "B_x", "M_x", "N_x", "dV_volts",
                    "uncertainty_volts", "rho_app_ohm_m"])
        for row in np.column_stack([survey.electrode_x[survey.abmn], data_v,
                                    unc, rho_app]):
            w.writerow([repr(float(v)) for v in row])

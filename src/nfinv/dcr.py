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
import ctypes
import logging
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack, lapack

from nfinv.blas import _split
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

    @cached_property
    def dipole_index(self) -> DipoleIndex:
        """Survey index by dipole: the distinct (A, B)/(M, N) pairs and,
        per datum, which of them is its source and its receiver."""
        abmn = self.abmn
        dipoles, which = np.unique(np.concatenate([abmn[:, :2], abmn[:, 2:]]),
                                   axis=0, return_inverse=True)
        which = which.ravel()
        stops = np.cumsum([0] + [len(rx) for rx in self.rx_dipoles]).tolist()
        return DipoleIndex(dipoles, which[:len(abmn)], which[len(abmn):],
                           tuple(map(slice, stops[:-1], stops[1:])))


@dataclass(frozen=True)
class DipoleIndex:
    """``dipoles[k]`` is an electrode pair (ordered as listed); datum d has
    source dipole ``src[d]`` and receiver dipole ``rx[d]``, and source i's
    data are the rows ``rows[i]``."""

    dipoles: np.ndarray  # (n_dipoles, 2)
    src: np.ndarray      # (n_data,)
    rx: np.ndarray       # (n_data,)
    rows: tuple[slice, ...]


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


# the C API calls that read a capsule's pointer, typed here rather than on
# the shared ``ctypes.pythonapi`` entries
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


@cache
def _lapack_dpbtrs():
    """LAPACK's ``dpbtrs`` through the pointer that scipy's cython_lapack
    exports; a ctypes call of it releases the GIL."""
    capsule = cython_lapack.__pyx_capi__["dpbtrs"]
    i = ctypes.POINTER(ctypes.c_int)
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, i, i, i,
                                 ctypes.c_void_p, i, ctypes.c_void_p, i, i)
    return prototype(_capsule_pointer(capsule, _capsule_name(capsule)))


def _dpbtrs(factor: np.ndarray, x: np.ndarray) -> int:
    """Overwrite the F-ordered columns x with the band solve; LAPACK's info.

    The call releases the GIL, so column blocks solve in parallel.  LAPACK
    solves one column at a time, so a block's columns get the same bits as
    in a solve of all of them at once.
    """
    if not (factor.flags.f_contiguous and x.flags.f_contiguous
            and factor.dtype == x.dtype == np.float64):
        raise ValueError("dpbtrs takes F-ordered float64 arrays")
    (ldab, n), nrhs = factor.shape, x.shape[1]
    info = ctypes.c_int(0)
    n_, kd, nrhs, ldab, ldb = (ctypes.byref(ctypes.c_int(v)) for v in (
        n, ldab - 1, nrhs, ldab, max(n, 1)))
    _lapack_dpbtrs()(b"L", n_, kd, nrhs, factor.ctypes.data, ldab,
                     x.ctypes.data, ldb, ctypes.byref(info))
    return info.value


@dataclass
class FvSystem:
    """Assembled conductance Laplacian with its band Cholesky factor."""

    L: sp.dia_matrix  # in band order: the diagonals 0, +-1 and +-kd
    _factor: np.ndarray = field(repr=False)  # dpbtrf's lower band factor
    _rank: np.ndarray = field(repr=False)  # each cell's place in the band

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Direct solve; SolverError if a column misses the residual check.

        The columns are solved in one block per core (``_split``), by the
        same arithmetic as a solve of all of them at once.  The worker
        threads only run ``dpbtrs``: the residual check runs here, over
        every column, so its temporaries stay out of the workers' malloc
        arenas (3 MB of peak RSS on ``dcr-nfs-full`` when each block
        checked its own columns).
        """
        b = np.asarray(b, dtype=float)
        banded = np.empty_like(b)
        banded[self._rank] = b
        B = banded.reshape(len(b), -1)
        x = B.copy(order="F")  # dpbtrs's column-major layout

        def solve_block(cols: slice) -> None:
            info = _dpbtrs(self._factor, x[:, cols])
            if info != 0:  # info < 0: an argument LAPACK refused
                raise SolverError(f"FV direct solve: dpbtrs info {info}")

        _split(solve_block, B.shape[1])
        bn = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
        res = np.linalg.norm(self.L @ x - B, axis=0)
        bad = np.count_nonzero(~(res <= 1e-8 * bn))  # NaN is a miss
        if bad:
            raise SolverError(f"FV direct solve: {bad} column(s) above the "
                              f"1e-8 relative residual (worst "
                              f"{np.max(res / bn):.3e})")
        return x[self._rank].reshape(b.shape)


def _face_conductance(mesh: TensorMesh, sigma: np.ndarray) -> np.ndarray:
    """Interior-face conductances, harmonic in sigma (half cells in series)."""
    fi, fj, area, di, dj = mesh.faces[:5]
    return area / (di / sigma[fi] + dj / sigma[fj])


def assemble_system(mesh: TensorMesh, sigma: np.ndarray) -> FvSystem:
    """Build and factorize the FV operator for a full-mesh conductivity."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.n_cells,):
        raise ValueError(f"sigma must have {mesh.n_cells} entries, "
                         f"got {sigma.shape}")
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise ValueError("conductivity must be finite and positive everywhere")

    *_, bc, b_area, b_dist = mesh.faces
    g = _face_conductance(mesh, sigma)
    gb = b_area * sigma[bc] / b_dist
    # L is SPD and, numbered along the shorter mesh side, a band matrix of
    # half-bandwidth min(nx_full, nz_full): band Cholesky needs no ordering
    # search and no pivoting
    rank, slot, kd = mesh.band_pattern
    band = np.bincount(slot, np.concatenate([g, g, -g, gb]),
                       minlength=(kd + 1) * mesh.n_cells)
    ab = band.reshape(-1, kd + 1).T
    # the 5-point stencil's band rows are 0, 1 and kd (one when kd = 1);
    # L copies them before dpbtrf overwrites the band
    offsets = np.unique([1, kd])
    sub = [ab[o, :-o] for o in offsets]
    L = sp.diags([ab[0], *sub, *sub], [0, *offsets, *-offsets], format="dia")
    factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:  # info > 0: that leading minor is not positive definite
        raise SolverError(f"factorization failed: dpbtrf info {info}")
    return FvSystem(L, factor, rank)


def electrode_cells(mesh: TensorMesh, survey: DcrSurvey) -> np.ndarray:
    """Snap electrodes to the nearest core surface-cell centers.

    Raises GeometryError when an electrode lies outside the core region.
    Snap distances are logged at debug level.
    """
    x_lo, x_hi = mesh.core_x_extent
    centers = mesh.core_centers[0]
    cells = np.empty(len(survey.electrode_x), dtype=int)
    for k, ex in enumerate(survey.electrode_x):
        if not (x_lo - 1e-9 <= ex <= x_hi + 1e-9):
            raise GeometryError(
                f"electrode at x={ex} outside core extent [{x_lo}, {x_hi}]")
        j = int(np.argmin(np.abs(centers - ex)))
        cells[k] = mesh.n_pad + j  # surface row, iz = 0
        snap = abs(centers[j] - ex)
        if snap > 1e-9:
            log.debug("electrode %d snapped %.3f m to x=%.2f", k, snap,
                      centers[j])
    return cells


class DcrSimulator:
    """Nonlinear forward map over active-cell log10-conductivity.

    ``predict`` assembles and factorizes the FV system for the model, then
    makes one solve with one column per electrode, the survey current
    injected at that electrode's cell: the pole potentials
    Phi = L^-1 (I E), shape (n_cells, n_elec) (Rücker, Günther & Spitzer
    2006, GJI 166).  A datum is the superposition
    d = P[M, A] - P[M, B] - P[N, A] + P[N, B] of the electrode potentials
    P = Phi[electrode cells].  L is symmetric, so by reciprocity the adjoint
    field of receiver dipole (M, N) is (Phi[:, M] - Phi[:, N]) / I
    (McGillivray & Oldenburg 1990, Geophys. Prosp. 38) and the derivative
    of a datum is -(Phi_M - Phi_N)^T dL (Phi_A - Phi_B) / I.  The
    derivatives linearize at the most recent predict without a solve:
    ``gradient`` contracts the face potentials with the cotangent scattered
    onto electrode pairs (one product per call), and ``sensitivity`` forms
    the whole Jacobian, n_data x n_active, on first use and keeps it until
    the next predict, so a caller that takes one adjoint per model never
    builds it (``jvp`` is ``sensitivity() @ dm``).  Derivatives are with
    respect to active-cell log10-conductivity; padding is frozen.

    The solve's column blocks are independent, so they are split over the
    cores the process may use (``_split``); every column is solved by the
    same arithmetic as in a serial solve, so the split changes no bit of
    any result.  The Jacobian is built serially: split over the cores it
    read no faster.
    """

    def __init__(self, mesh: TensorMesh, survey: DcrSurvey,
                 background_sigma: float):
        if background_sigma <= 0:
            raise ValueError("background conductivity must be positive")
        self.mesh = mesh
        self.survey = survey
        self.background_sigma = background_sigma
        self._cells = electrode_cells(mesh, survey)  # validates geometry
        # the last predict's pole potentials, conductivity and Jacobian
        self.phi = self.sigma = self._J = None

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
        if self._J is not None:
            self.phi = self.sigma = self._J = None
        system = assemble_system(self.mesh, sigma_full)
        n_elec = len(self._cells)
        rhs = np.zeros((self.mesh.n_cells, n_elec))
        rhs[self._cells, np.arange(n_elec)] = self.survey.current
        self.phi, self.sigma = system.solve(rhs), sigma_full
        P = self.phi[self._cells]
        A, B, M, N = self.survey.abmn.T
        return (P[M, A] - P[M, B]) - (P[N, A] - P[N, B])

    def _dg(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dg/dsigma on either side of interior faces and at boundary faces."""
        fi, fj, area, di, dj, _, b_area, b_dist = self.mesh.faces
        s = self.sigma
        g = _face_conductance(self.mesh, s)
        return (g * g * di / (area * s[fi] ** 2),
                g * g * dj / (area * s[fj] ** 2), b_area / b_dist)

    def gradient(self, cotangent: np.ndarray) -> np.ndarray:
        """Gradient of (cotangent . data) w.r.t. active log10-conductivity."""
        if self.phi is None:
            raise SolverError("gradient requested before any predict")
        v = np.asarray(cotangent, dtype=float)
        if v.shape != (self.survey.n_data,):
            raise ValueError(
                f"cotangent must have length {self.survey.n_data}")
        # W[e, e'] = sum of v over data with receiver electrode e and
        # source electrode e', signed as in predict
        ne = self.phi.shape[1]
        a, b, m, n = self.survey.abmn.T
        W = np.bincount(np.concatenate([m * ne + a, m * ne + b,
                                        n * ne + a, n * ne + b]),
                        np.concatenate([v, -v, -v, v]),
                        minlength=ne * ne).reshape(ne, ne)
        fi, fj, *_, bc, _, _ = self.mesh.faces
        dg_i, dg_j, dgb = self._dg()
        dphi = self.phi[fi] - self.phi[fj]
        wf = np.einsum("fe,fe->f", dphi @ W, dphi)
        phib = self.phi[bc]
        wb = np.einsum("fe,fe->f", phib @ W, phib)
        nc = self.mesh.n_cells
        grad_sigma = np.bincount(fi, wf * dg_i, nc) \
            + np.bincount(fj, wf * dg_j, nc) + np.bincount(bc, wb * dgb, nc)
        grad_sigma *= -1.0 / self.survey.current
        act = self.mesh.active_indices
        return grad_sigma[act] * self.sigma[act] * LN10

    def jvp(self, dm: np.ndarray) -> np.ndarray:
        """Derivative of the data along dm in active log10-conductivity."""
        dm = np.asarray(dm, dtype=float)
        if dm.shape != (self.mesh.n_active,):
            raise ValueError(
                f"dm must have {self.mesh.n_active} entries, got {dm.shape}")
        return self.sensitivity() @ dm

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

    def sensitivity(self) -> np.ndarray:
        """The data Jacobian J (n_data x n_active) at the last predict.

        Row d scatters the face-wise product of the receiver and source
        dipole potential drops onto cells.  Each dipole's face drops are
        formed once (``DcrSurvey.dipole_index``); the rows are formed one
        source dipole at a time, so the per-face temporaries hold only
        that source's receivers.  J is C-ordered: an F-ordered J would
        change the rounding of every product with it.
        """
        if self.phi is None:
            raise SolverError("sensitivity requested before any predict")
        if self._J is not None:
            return self._J
        fi, fj, *_, bc, _, _ = self.mesh.faces
        dg_i, dg_j, dgb = self._dg()
        index = self.survey.dipole_index
        a, b = index.dipoles.T
        terms = [(self.phi[fi] - self.phi[fj],
                  self._face_to_active((fi, fj), (dg_i, dg_j))),
                 (self.phi[bc], self._face_to_active((bc,), (dgb,)))]
        # padded: empty boundary term
        drops = [(p[:, a] - p[:, b], C) for p, C in terms if C.nnz]
        J = np.empty((self.survey.n_data, self.mesh.n_active))
        for d in index.rows:
            if d.start == d.stop:
                continue
            src, rx = index.src[d.start], index.rx[d]
            J[d] = reduce(np.add, (C @ (q[:, rx] * q[:, src, None])
                                   for q, C in drops)).T
        self._J = J
        return J


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
        w.writerows(np.column_stack([survey.electrode_x[survey.abmn],
                                     data_v, unc, rho_app]).tolist())

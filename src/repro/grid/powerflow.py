"""AC power flow (Newton-Raphson, polar form) and DC power flow.

The AC solver provides the "ground truth" operating point from which the
measurement substrate samples noisy SCADA/PMU telemetry.  It is a standard
full-Newton implementation on sparse matrices: PV buses hold voltage
magnitude, the slack bus holds magnitude and angle, and the Jacobian is the
polar ``dS/dV`` pair assembled in CSR form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .network import BusType, Network
from .ybus import build_yf_yt, build_ybus

__all__ = [
    "DcCompensationSolver",
    "PowerFlowResult",
    "PowerFlowError",
    "dsbus_dv",
    "run_ac_power_flow",
    "run_dc_power_flow",
    "run_dc_power_flow_batch",
]


class PowerFlowError(RuntimeError):
    """Raised when a power flow fails to converge."""


@dataclass
class PowerFlowResult:
    """Solved operating point.

    Attributes
    ----------
    converged:
        Whether the Newton iteration met the tolerance.
    iterations:
        Newton iterations used.
    Vm, Va:
        Bus voltage magnitude (p.u.) and angle (radians).
    P, Q:
        Net bus injections at the solution (p.u.).
    Pf, Qf, Pt, Qt:
        Branch flows at the from/to ends (p.u.).
    max_mismatch:
        Final infinity-norm of the power mismatch.
    """

    converged: bool
    iterations: int
    Vm: np.ndarray
    Va: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    Pf: np.ndarray
    Qf: np.ndarray
    Pt: np.ndarray
    Qt: np.ndarray
    max_mismatch: float

    @property
    def V(self) -> np.ndarray:
        """Complex bus voltages."""
        return self.Vm * np.exp(1j * self.Va)


def dsbus_dv(ybus: sp.spmatrix, V: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Partial derivatives of complex bus injections w.r.t. voltage (polar).

    Returns ``(dS_dVa, dS_dVm)`` as sparse matrices; the standard MATPOWER
    formulation.
    """
    ib = ybus @ V
    diag_v = sp.diags(V)
    diag_ib = sp.diags(ib)
    diag_vnorm = sp.diags(V / np.abs(V))

    ds_dva = 1j * diag_v @ (diag_ib - ybus @ diag_v).conj()
    ds_dvm = diag_v @ (ybus @ diag_vnorm).conj() + diag_ib.conj() @ diag_vnorm
    return ds_dva.tocsr(), ds_dvm.tocsr()


def run_ac_power_flow(
    net: Network,
    *,
    tol: float = 1e-8,
    max_iter: int = 30,
    flat_start: bool = False,
) -> PowerFlowResult:
    """Solve the AC power flow for ``net`` with full Newton-Raphson.

    Parameters
    ----------
    net:
        The network to solve.
    tol:
        Convergence tolerance on the infinity norm of the mismatch (p.u.).
    max_iter:
        Maximum Newton iterations.
    flat_start:
        Start from ``Vm=1, Va=0`` (PV/slack setpoints still applied) instead
        of the case's stored voltage profile.

    Raises
    ------
    PowerFlowError
        If the iteration does not converge within ``max_iter``.
    """
    n = net.n_bus
    ybus = build_ybus(net)
    Pspec, Qspec = net.bus_injections()
    sbus = Pspec + 1j * Qspec

    Vm = np.ones(n) if flat_start else net.Vm0.copy()
    Va = np.zeros(n) if flat_start else net.Va0.copy()

    # Apply generator voltage setpoints at PV and slack buses.
    if net.n_gen:
        on = net.gen_status > 0
        gb = net.gen_bus[on]
        held = np.isin(net.bus_type[gb], (BusType.PV, BusType.SLACK))
        Vm[gb[held]] = net.Vg[on][held]

    pv = net.pv_buses
    pq = net.pq_buses
    pvpq = np.concatenate([pv, pq])
    npv, npq = len(pv), len(pq)

    def mismatch(V: np.ndarray) -> np.ndarray:
        s_calc = V * np.conj(ybus @ V)
        ds = s_calc - sbus
        return np.concatenate([ds.real[pvpq], ds.imag[pq]])

    V = Vm * np.exp(1j * Va)
    F = mismatch(V)
    converged = bool(np.max(np.abs(F)) < tol) if F.size else True
    it = 0

    while not converged and it < max_iter:
        it += 1
        ds_dva, ds_dvm = dsbus_dv(ybus, V)
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = sp.bmat([[j11, j12], [j21, j22]], format="csc")

        dx = spla.spsolve(jac, F)

        # Damped Newton: halve the step while it increases the mismatch
        # norm.  Full steps are taken on well-behaved cases (no extra cost);
        # the backtracking keeps weak synthetic grids from diverging.
        f_old = np.linalg.norm(F)
        step = 1.0
        for _ in range(12):
            Va_new = Va.copy()
            Vm_new = Vm.copy()
            Va_new[pvpq] -= step * dx[: npv + npq]
            Vm_new[pq] -= step * dx[npv + npq :]
            F_new = mismatch(Vm_new * np.exp(1j * Va_new))
            if np.linalg.norm(F_new) < f_old or step < 1e-3:
                break
            step *= 0.5
        Va, Vm, F = Va_new, Vm_new, F_new
        V = Vm * np.exp(1j * Va)
        converged = bool(np.max(np.abs(F)) < tol)

    if not converged:
        raise PowerFlowError(
            f"power flow for {net.name!r} did not converge in {max_iter} "
            f"iterations (max mismatch {np.max(np.abs(F)):.3e})"
        )

    s_calc = V * np.conj(ybus @ V)
    yf, yt = build_yf_yt(net)
    sf = V[net.f] * np.conj(yf @ V)
    st = V[net.t] * np.conj(yt @ V)

    return PowerFlowResult(
        converged=True,
        iterations=it,
        Vm=Vm,
        Va=Va,
        P=s_calc.real,
        Q=s_calc.imag,
        Pf=sf.real,
        Qf=sf.imag,
        Pt=st.real,
        Qt=st.imag,
        max_mismatch=float(np.max(np.abs(F))) if F.size else 0.0,
    )


def run_dc_power_flow(net: Network) -> PowerFlowResult:
    """Solve the lossless DC approximation ``P = B' theta``.

    Voltage magnitudes are fixed at 1 p.u.; angles come from the reduced
    susceptance system with the (first) slack bus as reference.  Branch
    reactive flows are zero by construction.  Raises
    :class:`PowerFlowError` when the reduced system is singular (an
    islanded network), which ``spsolve`` reports only as non-finite angles.
    """
    n = net.n_bus
    live = net.live_branches()
    f, t = net.f[live], net.t[live]
    bsus = 1.0 / (net.x[live] * net.tap[live])

    rows = np.concatenate([f, f, t, t])
    cols = np.concatenate([f, t, f, t])
    vals = np.concatenate([bsus, -bsus, -bsus, bsus])
    bmat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()

    Pspec, _ = net.bus_injections()
    slack = int(net.slack_buses[0])
    keep = np.flatnonzero(np.arange(n) != slack)

    theta = np.zeros(n)
    # Shift injections by the phase-shifter offsets.
    pshift = np.zeros(n)
    shift_amt = bsus * net.shift[live]
    np.subtract.at(pshift, f, shift_amt)
    np.add.at(pshift, t, shift_amt)
    rhs = (Pspec + pshift)[keep]
    theta[keep] = spla.spsolve(bmat[np.ix_(keep, keep)], rhs)
    if not np.isfinite(theta).all():
        raise PowerFlowError("DC power flow: singular susceptance matrix")

    pf = bsus * (theta[f] - theta[t] - net.shift[live])
    Pf = np.zeros(net.n_branch)
    Pf[live] = pf
    Pinj = np.zeros(n)
    np.add.at(Pinj, f, pf)
    np.subtract.at(Pinj, t, pf)

    zeros = np.zeros(net.n_branch)
    return PowerFlowResult(
        converged=True,
        iterations=0,
        Vm=np.ones(n),
        Va=theta,
        P=Pinj,
        Q=np.zeros(n),
        Pf=Pf,
        Qf=zeros,
        Pt=-Pf,
        Qt=zeros.copy(),
        max_mismatch=0.0,
    )


class DcCompensationSolver:
    """Batched DC power flow over scenario forks of one base network.

    The reduced base susceptance system ``B0 theta = P`` is factored once;
    each scenario — a :class:`~repro.grid.delta.NetworkDelta` carrying
    branch-status flips and/or ``Pd`` overrides — is then solved by
    small-rank compensation (Sherman-Morrison-Woodbury) against the cached
    factorization instead of rebuilding and refactoring the matrix.  A
    branch flip is a rank-1 update ``Delta_b * a a^T`` with incidence vector
    ``a = e_f - e_t``; the required ``B0^{-1} a`` columns are computed in one
    multi-RHS triangular solve and memoized across calls, so a full N-1
    sweep costs one factorization plus O(n_branch) back-substitutions.

    Scenarios whose compensated system is singular (outages that island the
    grid) are reported with ``converged=False`` and NaN angles rather than
    raising, so one bad contingency cannot abort a batch.
    """

    def __init__(self, net: Network):
        self._net = net
        n = net.n_bus
        self._slack = int(net.slack_buses[0])
        keep = np.flatnonzero(np.arange(n) != self._slack)
        self._keep = keep
        nk = len(keep)
        # Reduced-system position per bus; the slack maps to an extra
        # always-zero slot so gather-style indexing needs no branching.
        pos = np.full(n, nk, dtype=np.int64)
        pos[keep] = np.arange(nk)
        self._pos = pos

        xt = net.x * net.tap
        # Dead zero-impedance branches are legal case data; they contribute
        # b=0 rather than a divide-by-zero.
        self._bsus_all = np.where(xt != 0.0, 1.0 / np.where(xt != 0.0, xt, 1.0), 0.0)
        self._base_status = (net.br_status > 0).astype(float)
        bsus = self._base_status * self._bsus_all

        f, t = net.f, net.t
        rows = np.concatenate([f, f, t, t])
        cols = np.concatenate([f, t, f, t])
        vals = np.concatenate([bsus, -bsus, -bsus, bsus])
        bmat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        self._lu = spla.splu(bmat[np.ix_(keep, keep)].tocsc())

        # Phase-shifter rhs term per branch (if that branch is in service).
        self._sh_all = self._bsus_all * net.shift
        sh0 = self._base_status * self._sh_all
        Pspec, _ = net.bus_injections()
        pshift = np.zeros(n)
        np.subtract.at(pshift, f, sh0)
        np.add.at(pshift, t, sh0)
        self._y0 = self._lu.solve((Pspec + pshift)[keep])

        # Bus->branch incidence for vectorized injection recovery.
        il = np.arange(net.n_branch)
        self._inc = sp.coo_matrix(
            (
                np.concatenate([np.ones(net.n_branch), -np.ones(net.n_branch)]),
                (np.concatenate([f, t]), np.concatenate([il, il])),
            ),
            shape=(n, net.n_branch),
        ).tocsr()

        # Memoized B0^{-1} columns: ("br", l) -> B0^{-1}(e_f - e_t),
        # ("bus", b) -> B0^{-1} e_b.  Rows are reduced-system coordinates.
        self._wcols: dict[tuple[str, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _effective_changes(self, delta):
        """Net out no-op overrides; return (branch idx, db, dsh, bus idx, dP)."""
        from .delta import _keep_last

        br_i, br_v = _keep_last(delta.br_idx, delta.br_val.astype(float))
        if len(br_i):
            db_full = (br_v - self._base_status[br_i]) * self._bsus_all[br_i]
            live = db_full != 0.0
            br_i = br_i[live]
            db = db_full[live]
            dsh = (br_v[live] - self._base_status[br_i]) * self._sh_all[br_i]
        else:
            db = dsh = np.zeros(0)
        pd_i, pd_v = _keep_last(delta.pd_idx, delta.pd_val)
        if len(pd_i):
            # Pspec = generation - Pd, so a load override shifts the rhs by
            # the negated Pd change (at non-slack buses only).
            dP_full = -(pd_v - self._net.Pd[pd_i])
            hot = (dP_full != 0.0) & (pd_i != self._slack)
            pd_i, dP = pd_i[hot], dP_full[hot]
        else:
            dP = np.zeros(0)
        return br_i, db, dsh, pd_i, dP

    def _ensure_columns(self, branch_ids, bus_ids) -> None:
        """Solve all missing B0^{-1} columns in one multi-RHS call."""
        missing = [("br", int(l)) for l in branch_ids if ("br", int(l)) not in self._wcols]
        missing += [("bus", int(b)) for b in bus_ids if ("bus", int(b)) not in self._wcols]
        if not missing:
            return
        nk = len(self._keep)
        rhs = np.zeros((nk, len(missing)))
        for c, (kind, i) in enumerate(missing):
            if kind == "br":
                pf, pt = self._pos[self._net.f[i]], self._pos[self._net.t[i]]
                if pf < nk:
                    rhs[pf, c] += 1.0
                if pt < nk:
                    rhs[pt, c] -= 1.0
            else:
                pb = self._pos[i]
                if pb < nk:
                    rhs[pb, c] = 1.0
        cols = self._lu.solve(rhs)
        for c, key in enumerate(missing):
            self._wcols[key] = np.ascontiguousarray(cols[:, c])

    # ------------------------------------------------------------------
    def solve(self, deltas) -> list[PowerFlowResult]:
        """DC-solve every scenario delta against the cached factorization."""
        deltas = list(deltas)
        K = len(deltas)
        net = self._net
        n, nl, nk = net.n_bus, net.n_branch, len(self._keep)

        changes = [self._effective_changes(d) for d in deltas]
        self._ensure_columns(
            {int(l) for br_i, *_ in changes for l in br_i},
            {int(b) for *_, pd_i, _dP in changes for b in pd_i},
        )

        theta_keep = np.empty((K, nk))
        converged = np.ones(K, dtype=bool)
        status = np.repeat(self._base_status[None, :], K, axis=0)
        for j, delta in enumerate(deltas):
            if len(delta.br_idx):
                status[j, delta.br_idx] = delta.br_val

        # Vectorized rank-1 fast path: the dominant N-1 sweep shape (one
        # flipped branch, no load overrides) solves every scenario in a
        # handful of dense (nk, F) array ops.
        fast = [
            j
            for j, (br_i, _db, _dsh, pd_i, _dP) in enumerate(changes)
            if len(br_i) == 1 and len(pd_i) == 0
        ]
        if fast:
            idx = np.asarray(fast)
            ls = np.array([int(changes[j][0][0]) for j in fast])
            db = np.array([changes[j][1][0] for j in fast])
            dsh = np.array([changes[j][2][0] for j in fast])
            W = np.stack([self._wcols[("br", int(l))] for l in ls], axis=1)
            Wx = np.vstack([W, np.zeros((1, len(ls)))])
            pf, pt = self._pos[net.f[ls]], self._pos[net.t[ls]]
            cols = np.arange(len(ls))
            aTw = Wx[pf, cols] - Wx[pt, cols]
            y0x = np.append(self._y0, 0.0)
            aTy0 = y0x[pf] - y0x[pt]
            # rhs shift term folded in: y = y0 - Delta_sh * w  per scenario
            y = self._y0[:, None] - dsh[None, :] * W
            aTy = aTy0 - dsh * aTw
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = aTy / (1.0 / db + aTw)
            theta_f = y - W * alpha[None, :]
            bad = ~np.isfinite(alpha)
            theta_f[:, bad] = np.nan
            converged[idx[bad]] = False
            theta_keep[idx] = theta_f.T

        for j, (br_i, db, dsh, pd_i, dP) in enumerate(changes):
            if len(br_i) == 1 and len(pd_i) == 0:
                continue  # handled by the fast path
            y = self._y0
            if len(pd_i) or len(br_i):
                y = y.copy()
                for b, dp in zip(pd_i, dP):
                    y += dp * self._wcols[("bus", int(b))]
                # rhs shift term: Delta_rhs = -Delta_sh * a  per flipped branch
                for l, ds in zip(br_i, dsh):
                    if ds != 0.0:
                        y -= ds * self._wcols[("br", int(l))]
            r = len(br_i)
            if r == 0:
                theta_keep[j] = y
                continue
            W = np.stack([self._wcols[("br", int(l))] for l in br_i], axis=1)
            # Gather a^T v with the slack projected to the extra zero slot.
            Wx = np.vstack([W, np.zeros((1, r))])
            yx = np.append(y, 0.0)
            pf, pt = self._pos[net.f[br_i]], self._pos[net.t[br_i]]
            aTy = yx[pf] - yx[pt]
            M = Wx[pf, :] - Wx[pt, :]
            M = M + np.diag(1.0 / db)
            try:
                alpha = np.linalg.solve(M, aTy)
            except np.linalg.LinAlgError:
                converged[j] = False
                theta_keep[j] = np.nan
                continue
            th = y - W @ alpha
            if not np.all(np.isfinite(th)):
                converged[j] = False
                theta_keep[j] = np.nan
                continue
            theta_keep[j] = th

        theta = np.zeros((K, n))
        theta[:, self._keep] = theta_keep

        bs = status * self._bsus_all[None, :]
        pf_flow = bs * (theta[:, net.f] - theta[:, net.t] - net.shift[None, :])
        with np.errstate(invalid="ignore"):
            Pinj = (self._inc @ pf_flow.T).T

        ones = np.ones(n)
        zeros_b = np.zeros(nl)
        zeros_n = np.zeros(n)
        return [
            PowerFlowResult(
                converged=bool(converged[j]),
                iterations=0,
                Vm=ones.copy(),
                Va=theta[j],
                P=Pinj[j],
                Q=zeros_n.copy(),
                Pf=pf_flow[j],
                Qf=zeros_b.copy(),
                Pt=-pf_flow[j],
                Qt=zeros_b.copy(),
                max_mismatch=0.0,
            )
            for j in range(K)
        ]


def run_dc_power_flow_batch(net: Network, deltas) -> list[PowerFlowResult]:
    """One-shot convenience wrapper around :class:`DcCompensationSolver`.

    For repeated sweeps against the same base network, construct the solver
    once and call :meth:`DcCompensationSolver.solve` — the factorization and
    compensation columns are then reused across calls.
    """
    return DcCompensationSolver(net).solve(deltas)

"""Monte Carlo engine: Euler-Maruyama paths of the diffusion and the
time-change construction of the coupled chain, with reproducible per-path
counter-based random streams.

A noise level is fixed by its CouplingModel: the model's eps scales the
noise and its initial law p, through the conditional laws, gives the
starting points, unless the EnsembleConfig fixes one start (x0, y0) for
every path. The config holds only what the levels of one run share: paths,
time grid, seed, storage, absorption and workers.

Every path owns a Philox stream keyed by (master seed, path index) and its
jumped substream (the same key advanced by 2**128 draws). The main stream
supplies the initial-condition uniforms (unless the start is fixed), then
the diffusion noise vector; the substream supplies the chain's initial clock
budgets, then its clock redraws in event order. An ensemble advances x and y
together, window by window: the Euler loop fills a window of steps from the
noise drawn for it, the chain's time change runs on that window while it is
in cache, and only the stored rows, x at the jumps and the exit points
outlive it, so no full-resolution x array is ever formed. Block-wise draws
consume a stream exactly as one call for the whole vector would, and the
clocks have their own stream, so no draw depends on the window length. The
single-path entry points run the same kernels at width one, so an ensemble
is bit-identical to composing them path by path with the derived streams,
independent of chunking or worker scheduling. The levels of one config read
the same streams, so a run advances one level per model in lockstep on one
draw of each path's normals, and each level equals its own
simulate_ensemble.

An ensemble is held as columns (Ensemble): the stored x of every path on one
shared time grid, and one flat jump log. A path is the Ensemble of one that
indexing gives, a view of its x column and its range of the jump log;
Ensemble.rows merges the stored rows with the jumps. ensemble_chunks yields
the run chunk by chunk, in path order, so a caller that consumes each chunk
as it comes (the simulate command writing its CSVs) holds one chunk, not
the ensemble; simulate_ensembles and simulate_ensemble join the chunks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import CouplingModel, initial_uniforms, sample_initial
from .errors import BlowUpError
from .potential import Potential
from .spectral import auto_grid

__all__ = [
    "EnsembleConfig",
    "Ensemble",
    "simulate_x",
    "simulate_y_given_x",
    "simulate_ensemble",
    "simulate_ensembles",
    "ensemble_chunks",
    "first_exit_time",
    "path_stream",
    "clock_stream",
]

DT_CURVATURE_FACTOR = 1e-2
ESCAPE_FACTOR = 10.0
# working memory of one chunk: its paths' stored rows plus a window per
# noise level and the noise tape's rows. Wide chunks amortize the per-step
# numpy dispatch overhead; past a few thousand paths there is little left to
# amortize
_CHUNK_BYTES = 2 ** 28
_NOISE_BLOCK = 512        # steps of a window, shared by a chunk's noise levels
_NOISE_GROUP = 128        # paths per transpose of the noise buffer
_ROW_CHUNK = 2 ** 14      # trajectory rows assembled (or written) at a time
_STORED_TOL = 1e-9        # how far from a stored time x_at_stored may be asked,
                          # and a horizon from the dt grid


def _off_step_grid(dt: float, horizon: float) -> bool:
    """Whether horizon is not a whole number of dt steps: a run ends at
    round(horizon / dt) * dt, and x at the horizon is read off the stored
    grid."""
    return abs(round(horizon / dt) * dt - horizon) > _STORED_TOL


class Rows(NamedTuple):
    """The trajectory rows of a range of paths, path-major: each path's
    times, x and y, concatenated."""

    offsets: np.ndarray     # (P+1,) the k-th path's rows are offsets[k]:offsets[k+1]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    grid: np.ndarray        # index into Ensemble.times, -1 for a jump or exit row


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A coupled path ensemble as columns.

    Every path shares the stored-time grid times (every store_stride-th
    step and the last); x holds the paths' positions there, and an absorbed
    path stays at its exit point after its exit time. The jump log is flat,
    ordered by path and then by time: path k's jumps are jump_offsets[k] to
    jump_offsets[k+1]. A path is an Ensemble of one, which indexing and
    iteration give: views of its columns and of its range of the jump log,
    the offsets rebased to 0. rows merges paths' stored rows with their
    jumps and exits.
    """

    times: np.ndarray         # (S,) stored-grid times
    x: np.ndarray             # (S, P)
    y0: np.ndarray            # (P,) initial chain states
    jump_t: np.ndarray        # (J,) jump times
    jump_from: np.ndarray     # (J,)
    jump_to: np.ndarray       # (J,)
    jump_x: np.ndarray        # (J,) x at the jumps, interpolated between steps
    jump_offsets: np.ndarray  # (P+1,)
    exit_time: np.ndarray     # (P,) absorption time, NaN where not absorbed
    exit_x: np.ndarray        # (P,) x at absorption
    clocks: np.ndarray        # (P, m+1, m+1) residual budgets, diagonal unused
    path_index: np.ndarray    # (P,) stream index of each path

    def __len__(self) -> int:
        return len(self.y0)

    def __getitem__(self, k) -> Ensemble:
        k = range(len(self))[k]
        j0, j1 = self.jump_offsets[k], self.jump_offsets[k + 1]
        one = slice(k, k + 1)
        return Ensemble(
            times=self.times, x=self.x[:, one], y0=self.y0[one],
            jump_t=self.jump_t[j0:j1], jump_from=self.jump_from[j0:j1],
            jump_to=self.jump_to[j0:j1], jump_x=self.jump_x[j0:j1],
            jump_offsets=np.array([0, j1 - j0]), exit_time=self.exit_time[one],
            exit_x=self.exit_x[one], clocks=self.clocks[one], path_index=self.path_index[one])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @property
    def jumps(self) -> tuple:
        """The jump log as (t, from, to) triples, in log order."""
        return tuple(zip(self.jump_t.tolist(), self.jump_from.tolist(),
                         self.jump_to.tolist()))

    def y_at(self, t: float) -> np.ndarray:
        """(P,) exact chain states at time t, from the jump log."""
        n = len(self)
        path = np.repeat(np.arange(n), np.diff(self.jump_offsets))
        count = np.bincount(path[self.jump_t <= t], minlength=n)
        y = self.y0.copy()
        moved = count > 0
        y[moved] = self.jump_to[self.jump_offsets[:-1][moved] + count[moved] - 1]
        return y

    def x_at_stored(self, t: float) -> np.ndarray:
        """(P,) x at the stored-grid time t. Raises when t is not stored or
        some path was absorbed before t."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > _STORED_TOL:
            raise ValueError(f"time {t} is not on the stored grid "
                             f"(nearest {self.times[i]})")
        gone = int(np.count_nonzero(self.exit_time < t - _STORED_TOL))
        if gone:
            raise ValueError(f"time {t} lies past the exit time of {gone} paths")
        return self.x[i].copy()

    def row_chunks(self, start: int = 0, stop: int | None = None):
        """Ranges (a, b) of the paths start to stop, in order, with at most
        _ROW_CHUNK rows each, or one path where a path alone has more."""
        stop = len(self) if stop is None else stop
        per_path = len(self.times) + 1      # and its jumps: a path's rows at most
        fit = 1 + _ROW_CHUNK // per_path    # more paths than a chunk can hold
        a = start
        while a < stop:
            ahead = np.diff(self.jump_offsets[a:min(a + fit, stop) + 1])
            bound = np.cumsum(per_path + ahead)
            b = a + max(1, int(np.searchsorted(bound, _ROW_CHUNK, side="right")))
            yield a, b
            a = b

    def rows(self, start: int, stop: int) -> Rows:
        """The rows of the paths start to stop: the stored times,
        cut at the exit time if absorbed, merged with the jump times and the
        exit time in time order, a stored time before an equal inserted one;
        a row at the time of the row before it is dropped. y is the state
        after the jumps at or before each time."""
        n = stop - start
        paths = np.arange(n)
        exit_t = self.exit_time[start:stop]
        absorbed = np.flatnonzero(~np.isnan(exit_t))
        # NaN sorts last: a path never absorbed keeps every stored row
        n_grid = np.searchsorted(self.times, exit_t, side="right")
        gp = np.repeat(paths, n_grid)
        gi = np.arange(len(gp)) - np.repeat(np.cumsum(n_grid) - n_grid, n_grid)
        j0, j1 = self.jump_offsets[start], self.jump_offsets[stop]
        jp = np.repeat(paths, np.diff(self.jump_offsets[start:stop + 1]))
        jk = j0 + np.flatnonzero(~(self.jump_t[j0:j1] > exit_t[jp]))   # up to the exit
        # stored rows, jumps and exits, sorted stably by path and time
        p = np.concatenate((gp, jp[jk - j0], absorbed))
        t = np.concatenate((self.times[gi], self.jump_t[jk], exit_t[absorbed]))
        order = np.lexsort((t, p))
        p, t = p[order], t[order]
        x = np.concatenate((self.x[gi, start + gp], self.jump_x[jk],
                            self.exit_x[start + absorbed]))[order]
        grid = np.concatenate((gi, np.full(len(jk) + len(absorbed), -1)))[order]
        jump = np.concatenate((np.full(len(gi), -1), jk,            # log index
                               np.full(len(absorbed), -1)))[order]
        kept = np.ones(len(t), dtype=bool)
        kept[1:] = (t[1:] > t[:-1]) | (p[1:] != p[:-1])
        kept = np.flatnonzero(kept)
        # the last jump up to the last row at each kept row's time; log
        # indices increase along the rows
        last = np.maximum.accumulate(jump)[np.append(kept[1:], len(t)) - 1]
        row_path = p[kept]
        y = self.y0[start + row_path]
        moved = last >= self.jump_offsets[start + row_path]
        y[moved] = self.jump_to[last[moved]]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_path, minlength=n), out=offsets[1:])
        return Rows(offsets, t[kept], x[kept], y, grid[kept])


def _is_integer(v) -> bool:
    """An integer: true and false are Python ints but not counts."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# the rules an ensemble's sizes, seed and length obey, in a config file
# and in an EnsembleConfig alike
_INT64_MAX = 2 ** 63 - 1


def _is_size(v, lo: int = 1) -> bool:
    """An integer in [lo, int64 max]: sizes become numpy indices."""
    return _is_integer(v) and lo <= v <= _INT64_MAX


def _is_seed(v) -> bool:
    """An integer in [0, 2**64): the key of every path's streams."""
    return _is_integer(v) and 0 <= v < 2 ** 64


def _steps_fit(dt: float, horizon: float) -> bool:
    """Whether a run of horizon / dt steps counts its steps in an int64."""
    return horizon / dt < _INT64_MAX


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble parameters. Every path starts at (x0, y0) when both are
    given, and draws its start from the coupled initial law of its model
    when neither is; a level runs at its model's eps."""

    n_paths: int
    dt: float
    horizon: float
    seed: int
    x0: float | None = None
    y0: int | None = None
    store_stride: int = 1
    absorb: tuple | None = None       # (lo, hi): stop paths on hitting [lo, hi]
    workers: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)
                and 0 < self.dt <= self.horizon and _steps_fit(self.dt, self.horizon)):
            raise ValueError("need finite dt > 0 and horizon >= dt, fewer than 2**63 steps")
        if _off_step_grid(self.dt, self.horizon):
            raise ValueError(f"horizon {self.horizon:g} is not a whole number of "
                             f"dt = {self.dt:g} steps")
        if not _is_size(self.n_paths):
            raise ValueError("need an integer n_paths >= 1")
        if not _is_seed(self.seed):
            raise ValueError("need an integer seed in [0, 2**64)")
        if (self.x0 is None) != (self.y0 is None):
            raise ValueError("a fixed start needs both x0 and y0")
        if self.x0 is not None and not (math.isfinite(self.x0) and _is_integer(self.y0)
                                        and self.y0 >= 0):
            raise ValueError("a fixed start needs a finite x0 and an integer y0 >= 0")
        if not _is_size(self.store_stride):
            raise ValueError("need an integer store_stride >= 1")
        if self.absorb is not None:
            try:
                lo, hi = self.absorb
                ok = math.isfinite(lo) and math.isfinite(hi) and lo < hi
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError("absorb must be two finite numbers lo < hi")
        if not (_is_integer(self.workers) and self.workers >= 1):
            raise ValueError("need an integer workers >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def path_stream(seed: int, path_index: int, counter=None) -> np.random.Generator:
    """The counter-based stream owned by one path: Philox keyed by the pair
    (master seed, path index), one 64-bit key word each, its counter at
    zero unless given.

    Folding the index into the seed word (e.g. by XOR) would make the key
    sets of nearby seeds permutations of each other, so whole ensembles would
    coincide across seed sweeps; separate key words keep every (seed, path)
    stream distinct.
    """
    key = np.array([np.uint64(seed), np.uint64(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def clock_stream(seed: int, path_index: int) -> np.random.Generator:
    """The substream of path_stream(seed, path_index) that drives the chain's
    clocks: the same Philox key with the counter started 2**128 draws ahead,
    the state that .jumped() gives, built without first building the main
    stream. The chain runs alongside the diffusion, before the path's noise
    is all drawn, so its draws cannot follow the noise on the main stream."""
    return path_stream(seed, path_index, counter=[0, 0, 1, 0])


def _escape_bound(potential: Potential, eps: float, x_extra: float) -> float:
    """ESCAPE_FACTOR times the larger of |x_extra| and the auto_grid
    half-width, the bound an ensemble draws from its grid's end nodes;
    at eps = 0, where no grid is defined, the reach of the critical points
    plus one stands in for the half-width."""
    if eps > 0:
        base = auto_grid(potential, eps).L
    else:
        crits = np.concatenate((potential.minima, potential.maxima))
        base = float(np.max(np.abs(crits)) + 1.0) if crits.size else 1.0
    return ESCAPE_FACTOR * max(base, abs(x_extra))


def max_stable_dt(potential: Potential) -> float:
    """Time-step bound 1e-2 / max |F''| over the minima."""
    curv = np.max(np.abs(potential.hess(potential.minima)))
    return DT_CURVATURE_FACTOR / curv if curv > 0 else np.inf


def _check_dt(potential: Potential, dt: float):
    bound = max_stable_dt(potential)
    if dt > bound:
        raise ValueError(f"dt = {dt:g} exceeds the curvature bound {bound:g} "
                         "(1e-2 over the stiffest well)")


class _NoiseTape:
    """The (n_steps, C) standard normals of a block of paths, drawn from each
    path's stream once for any number of readers, each of which reads the
    steps in order, one window at a time. The tape is a ring of cap rows,
    step k in row k % cap: a step is drawn when the first reader asks for it
    and its row is drawn over once no reader needs it again. A reader asks
    for its next window only when no reader is behind it and that window
    has at most cap steps, so the rows drawn over hold steps every reader
    has passed. Groups of _NOISE_GROUP paths fill the rows of a cache-sized
    buffer, whose transpose is copied into the step-major ring the Euler
    loop reads; a whole-width transpose would miss the cache on every
    element."""

    def __init__(self, gens, n_steps: int, cap: int):
        c = len(gens)
        self.gens = gens
        self.shape = (n_steps, c)
        self.ring = np.empty((min(cap, n_steps), c))
        self.buf = np.empty((min(_NOISE_GROUP, c), len(self.ring)))
        self.drawn = 0

    def rows(self, k0: int, k1: int):
        """The (C,) rows of the steps k0 to k1, in order, drawing those not
        drawn yet."""
        cap = len(self.ring)
        if k0 < self.drawn - cap or k1 - k0 > cap:
            raise ValueError(f"steps {k0} to {k1} are not all on a tape of {cap} rows "
                             f"drawn up to step {self.drawn}")
        while self.drawn < k1:
            a = self.drawn % cap
            nb = min(k1 - self.drawn, cap - a)
            self._draw(a, nb)
            self.drawn += nb
        a, b = k0 % cap, k0 % cap + k1 - k0
        if b <= cap:
            return iter(self.ring[a:b])
        return itertools.chain(self.ring[a:], self.ring[:b - cap])

    def _draw(self, a, nb):
        """The next nb steps of every path into the ring rows a to a + nb."""
        buf = self.buf
        for g0 in range(0, self.shape[1], _NOISE_GROUP):
            group = self.gens[g0:g0 + _NOISE_GROUP]
            for i, g in enumerate(group):
                g.standard_normal(out=buf[i, :nb])
            self.ring[a:a + nb, g0:g0 + len(group)] = buf[:len(group), :nb].T


def _stored_steps(n_steps: int, stride: int) -> np.ndarray:
    """Every stride-th step and the last one."""
    stored = np.arange(0, n_steps + 1, stride)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    return stored


class _Diffusion:
    """Euler-Maruyama on a block of paths, one window of steps at a time.

    While a window of steps [w0, w0 + nw) is current, win[i] holds x at step
    w0 - 1 + i: the row before the window start, kept for the chain's jump
    interpolation, then the window's own rows; the last two rows carry into
    the next window. Only the rows at stored_steps outlive their window, in
    stored (S, C), a given array or a new one; n_stored of them are written.
    Paths that hit the absorbing interval are frozen at the interpolated
    crossing point; exit_steps stays n_steps + 1 for the others. The noise
    is read from a tape, which other diffusions may read too; each scales
    its own copy of a step's row by sig, so the tape is never changed.
    """

    def __init__(self, potential, eps, x0s, noise: _NoiseTape, dt, bound,
                 stored_steps, absorb=None, stored=None):
        n_steps, c = noise.shape
        self.potential, self.noise, self.dt, self.bound = potential, noise, dt, bound
        self.sig = np.sqrt(2.0 * eps * dt)
        self.x0s, self.absorb = x0s, absorb
        self.steps = stored_steps
        self.stored = np.empty((len(stored_steps), c)) if stored is None else stored
        self.stored[0] = x0s
        self.n_stored = 1
        self.active = np.ones(c, dtype=bool)
        self.exit_steps = np.full(c, n_steps + 1, dtype=np.int64)
        self.exit_fracs = np.zeros(c)
        self.exit_xs = np.zeros(c)
        if absorb is not None:
            lo, hi = absorb
            hit = np.nonzero((x0s >= lo) & (x0s <= hi))[0]
            self.exit_steps[hit] = 0
            self.exit_xs[hit] = x0s[hit]
            self.active[hit] = False
        self.w0 = 0           # steps run
        self.win = None

    def windows(self, width: int):
        """Advance by windows of width steps, yielding (w0, nw) once win
        holds the window's rows."""
        while self.w0 < self.noise.shape[0]:
            yield self.advance(width)

    def advance(self, width: int):
        """Run the next window, of width steps or the steps left, with the
        same width at every call; returns its (w0, nw) once win holds its
        rows."""
        n_steps, c = self.noise.shape
        w0 = self.w0
        nw = min(width, n_steps - w0)
        win = self.win
        if win is None:
            win = self.win = np.empty((width + 2, c))
            win[:2] = self.x0s
            self.grad, self.scaled = np.empty(c), np.empty(c)
        else:
            win[:2] = win[self.nw:self.nw + 2]
        grad, scaled = self.grad, self.scaled
        active, exit_steps = self.active, self.exit_steps
        if self.absorb is not None:
            lo, hi = self.absorb
        for i, z in enumerate(self.noise.rows(w0, w0 + nw)):
            k = w0 + i
            # x - F'(x) dt + sig z, operation for operation
            xk, xn = win[i + 1], win[i + 2]
            self.potential.grad_into(xk, grad)
            grad *= self.dt
            np.subtract(xk, grad, out=xn)
            xn += np.multiply(z, self.sig, out=scaled)
            if self.absorb is not None:
                np.copyto(xn, xk, where=~active)
                entered = active & (xn >= lo) & (xn <= hi)
                if entered.any():
                    idx = np.nonzero(entered)[0]
                    prev = xk[idx]
                    cur = xn[idx]
                    boundary = np.where(prev < lo, lo, hi)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        frac = np.where(cur == prev, 0.0,
                                        np.clip((boundary - prev) / (cur - prev), 0.0, 1.0))
                    exit_steps[idx] = k
                    self.exit_fracs[idx] = frac
                    self.exit_xs[idx] = boundary
                    xn[idx] = boundary
                    active[idx] = False
            if k % 256 == 0 or k == n_steps - 1:
                mx = np.max(np.abs(xn))
                if not mx <= self.bound:   # NaN-safe: NaN fails every comparison
                    raise BlowUpError(
                        f"path escaped |x| <= {self.bound:g} (reached {mx:g}); "
                        "the time step is too large for this potential")
        s0, s1 = np.searchsorted(self.steps, (w0 + 1, w0 + nw + 1))
        self.stored[s0:s1] = win[self.steps[s0:s1] - w0 + 1]
        self.n_stored = s1
        self.w0, self.nw = w0 + nw, nw
        return w0, nw


def _fresh(name, shape, dtype=np.float64):
    """A scratch provider that allocates every temporary anew."""
    return np.empty(shape, dtype)


class _Scratch:
    """A scratch provider whose temporaries are views of arrays it keeps.
    Each name owns one flat array, grown to an eighth more than the size
    that outgrew it: the tiles of a scan differ in size by less than that,
    so the first full tile sizes it for the rest. Fresh tile-sized arrays
    would go back to the system when freed, and every tile would fault its
    memory in anew."""

    def __init__(self):
        self.arrays = {}

    def __call__(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self.arrays.get(name)
        if buf is None or buf.size < size:
            buf = self.arrays[name] = np.empty(size + size // 8, dtype)
        return buf[:size].reshape(shape)


class _Tilts:
    """Tilts 1 + vectors^T modes off the grid: the spectral modes are
    interpolated linearly in each cell, clamped at the ends (negligible
    stationary mass lives outside). The tilts are affine in the modes, so
    this is the tilt table interpolated cell by cell, and rates formed as
    Q_ij tilt_j / tilt_i keep the identity tilt_i rate_ij = Q_ij tilt_j.
    Every evaluation is elementwise with the mode sum in a fixed order, so it
    rounds the same at any width."""

    def __init__(self, model: CouplingModel):
        nodes = model.grid_nodes
        self.origin = nodes[0]
        self.h = nodes[1] - nodes[0]
        self.left = model.modes[:, :-1]
        self.slope = np.diff(model.modes, axis=1)
        self.vectors = model.vectors

    def modes(self, x, out=None, scratch=_fresh):
        """(m,) + x.shape mode values at arbitrary positions, into out if
        given. scratch(name, shape, dtype) supplies the temporaries; x may
        be its "pos" array, which is overwritten."""
        pos = np.subtract(x, self.origin, out=scratch("pos", x.shape))
        pos /= self.h
        # the cell, pos.astype(np.int64) clipped to the table, found in
        # floats: pos minus an int64 array would cast it through a buffer.
        # The gathers below take the array once the cell is cast
        gather = scratch("gather", x.shape)
        cell = np.trunc(pos, out=gather)
        np.clip(cell, 0, self.left.shape[1] - 1, out=cell)
        frac = np.subtract(pos, cell, out=pos)
        np.clip(frac, 0.0, 1.0, out=frac)
        idx = scratch("idx", x.shape, np.int64)
        np.copyto(idx, cell, casting="unsafe")
        if out is None:
            out = np.empty((len(self.left),) + x.shape)
        for k, (left, slope) in enumerate(zip(self.left, self.slope)):
            # left + frac * slope, by row: a take from a 1-d table is the
            # fast one
            np.multiply(np.take(slope, idx, mode="clip", out=gather), frac, out=out[k])
            out[k] += np.take(left, idx, mode="clip", out=gather)
        return out

    def of(self, states, modes, out=None, term=None):
        """Tilts of the given states at the mode values, broadcast; into out,
        with term holding each product past the first, where given."""
        acc = np.multiply(self.vectors[0, states], modes[0], out=out)
        for k in range(1, len(modes)):
            term = np.multiply(self.vectors[k, states], modes[k], out=term)
            acc += term
        acc += 1.0
        return acc

    def __call__(self, x):
        """(m+1,) + x.shape tilt values at arbitrary positions."""
        states = np.arange(self.vectors.shape[1]).reshape((-1,) + (1,) * x.ndim)
        return self.of(states, self.modes(x))


def _segment_depletion(qa, qb, t0, t1, dt):
    """Integral of the linearly interpolated rate over step fractions
    [t0, t1], scaled by dt: the formula every depletion update rounds by."""
    return dt * (qa * (t1 - t0) + (qb - qa) * (t1 * t1 - t0 * t0) * 0.5)


def _crossing_fractions(qa, qb, t0, budget, dt, fend):
    """Elementwise smallest t in (t0, fend] with the segment depletion equal
    to the budget, or +inf where there is none. An exhausted budget fires
    immediately at t0; otherwise the quadratic is solved in the stable
    citardauq form."""
    a = 0.5 * (qb - qa)
    b = qa
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = budget / dt + a * t0 * t0 + b * t0
        disc = b * b + 4.0 * a * g
        denom = b + np.sqrt(np.maximum(disc, 0.0))
        t = 2.0 * g / denom
    t = np.where((denom > 0.0) & (t0 < t) & (t <= 1.0), t, np.inf)
    t = np.where(budget <= 0.0, t0, t)
    return np.where(t <= fend, t, np.inf)


_Y_BLOCK_MAX = 256
_Y_REPLAY_BUDGET = 0.04   # target crossings per path per block
_Y_TILE_ELEMS = 2 ** 16   # path-steps per tile of the chain's temporaries (L2-sized)


def _y_block_size(model: CouplingModel, dt: float) -> int:
    """Block length keeping the expected per-path crossings per block small,
    so the step-by-step replay stays rare. Depends only on the model and dt,
    which keeps ensemble and single-path runs on identical code paths."""
    rate_bound = float(np.max(model.jump_rates.sum(axis=1)))
    if rate_bound <= 0.0:
        return _Y_BLOCK_MAX
    return int(np.clip(_Y_REPLAY_BUDGET / (rate_bound * dt), 1, _Y_BLOCK_MAX))


def _block_sums(dep, block, out):
    """The (k, ceil(n / block), w) sums of the C-contiguous (k, n, w)
    depletions over each block of steps, written to out, added in step
    order: the first step, plus the second, and so on, as a running sum
    gives it.

    One add.reduce over the full blocks, seen as (k, nblocks, block, w), and
    one over the trailing partial block give that order: numpy sums pairwise
    only along the fast axis, and the reduced step axis is not the fast one
    while w >= 2, so each output element takes its steps one by one. At
    w = 1 the path axis drops out, the step axis becomes the fast one and
    the sum turns pairwise, so a 1-path tile adds its steps in a loop."""
    k, n, w = dep.shape
    if w == 1:
        np.copyto(out, dep[:, ::block])
        for j in range(1, block):
            part = dep[:, j::block]
            out[:, :part.shape[1]] += part
        return out
    full = n // block
    np.add.reduce(dep[:, :full * block].reshape(k, full, block, w), axis=2,
                  out=out[:, :full])
    if full * block < n:
        np.add.reduce(dep[:, full * block:], axis=1, out=out[:, full])
    return out


class _ChainWalk:
    """Time-change construction of the chain along a block of diffusion paths,
    advanced window by window.

    Each ordered state pair owns a unit-rate exponential budget that depletes
    by the trapezoid integral of its rate along the path while the chain sits
    in the pair's source state; crossing times inside a step are located on
    the linearly interpolated depletion. Budgets persist across jumps of
    other pairs and are redrawn only for the pair that fired. gens are the
    paths' clock streams: the initial budgets, then the redraws.

    Steps are grouped in blocks, and a window is walked event by event. A
    scan takes the block totals of the rates out of each pending path's
    current state; one subtract.accumulate over [budget, total_0, total_1,
    ...] gives the budget at the start of every block, rounded as settling
    block after block rounds it, so every path settles in one update up to
    its first block with a crossing or its exit. Those blocks are replayed
    step by step, all replaying paths together: the same accumulate over the
    step depletions finds each path's first crossing step, where the cascade
    of jumps runs in lockstep until no clock fires before the step ends. The
    paths that jumped then return to the scan at their next block. Every
    operation is elementwise or a sequential sum along steps, and the
    temporaries are tiled over about _Y_TILE_ELEMS path-steps, so a path
    rounds the same at any ensemble width or tiling. The scan computes its
    tiles in scratch arrays, sized by the first tiles and reused by every
    later tile and window: the given scratch, which the walks of one chunk
    share as they run one after another, or the walk's own; chunks on
    different threads share none.
    """

    def __init__(self, model: CouplingModel, y0s, gens, dt, n_steps, scratch=None):
        m1 = model.n_states
        self.gens, self.dt, self.n_steps = gens, dt, n_steps
        self.tilts = _Tilts(model)
        self.qz = model.Q.copy()
        np.fill_diagonal(self.qz, 0.0)
        # others[i]: the targets of state i's outgoing pairs
        self.others = np.array([[j for j in range(m1) if j != i] for i in range(m1)],
                               dtype=np.int64).reshape(m1, m1 - 1)
        # diagonal budgets are never armed; +inf keeps them out of every test
        self.budgets = np.full((len(gens), m1, m1), np.inf)
        off = ~np.eye(m1, dtype=bool)
        for p, g in enumerate(gens):
            self.budgets[p][off] = g.standard_exponential(m1 * (m1 - 1))
        self.y = np.asarray(y0s, dtype=np.int64).copy()
        # (paths, t, from, to) of the jumps still lacking x, in rounds, and
        # (paths, t, from, to, x) of those with x; each path's in event order
        none = np.empty(0, dtype=np.int64)
        self.log = [(none, np.empty(0), none, none)]
        self.placed = [(none, np.empty(0), none, none, np.empty(0))]
        self.block = _y_block_size(model, dt)
        self.scratch = _Scratch() if scratch is None else scratch

    def advance(self, win, r0, w0, w1, exit_steps, exit_fracs):
        """Run the steps [w0, w1) on win, whose row i holds x at step r0 + i.
        w0 is a multiple of the block length, and so is w1 unless it is
        n_steps, so the blocks are the same for any window length. Only exits
        before w1 need be known."""
        starts = np.arange(w0, w1, self.block)
        paths = np.nonzero((exit_steps >= w0) & (w0 < w1))[0]
        first = np.zeros(len(paths), dtype=np.int64)    # each path's next block
        while paths.size:
            paths, first = self._scan(win, r0, w1, starts, paths, first, exit_steps)
            paths, first = self._replay(win, r0, w1, starts, paths, first,
                                        exit_steps, exit_fracs)
        self._interpolate(win, r0)

    def _pairs(self, paths):
        """States, targets (k, P) and budgets (k, P) of the paths' outgoing pairs."""
        y = self.y[paths]
        to = self.others[y].T
        return y, to, self.budgets[paths, y, to]

    def _scan(self, win, r0, w1, starts, paths, first, exit_steps):
        """Settle each path from its block first up to its first block with a
        crossing or its exit; returns those paths and blocks."""
        order = np.argsort(first, kind="stable")
        paths, first = paths[order], first[order]
        hits, hit_blocks = [], []
        i0 = 0
        while i0 < len(paths):
            base = int(first[i0])
            s0 = int(starts[base])
            width = max(1, _Y_TILE_ELEMS // (w1 - s0 + 1))
            tp = paths[i0:i0 + width]
            fired, event = self._settle(win[s0 - r0:w1 - r0 + 1], s0, w1, tp,
                                        first[i0:i0 + width] - base, exit_steps[tp])
            hits.append(tp[fired])
            hit_blocks.append(event[fired] + base)
            i0 += width
        return np.concatenate(hits), np.concatenate(hit_blocks)

    def _settle(self, rows, s0, w1, tp, rel, exits):
        """One tile of the scan over the blocks from step s0 on, rows holding
        x at steps s0 to w1: settles the paths tp, starting at their blocks
        rel, up to their first event; returns which paths have one and its
        block."""
        y, to, left = self._pairs(tp)
        scratch = self.scratch
        if (np.diff(tp) == 1).all():        # a run of consecutive paths: a view
            x = rows[:, tp[0]:tp[-1] + 1]
        else:
            x = np.take(rows, tp, axis=1, mode="clip",
                        out=scratch("pos", (len(rows), len(tp))))
        # [budget, total_0, total_1, ...]
        cat = scratch("cat", (len(to), -(-(len(rows) - 1) // self.block) + 1, len(tp)))
        cat[:, 0] = left
        total = self._block_totals(x, y, to, cat[:, 1:])
        nb = total.shape[1]
        blocks = np.arange(nb)[:, None]
        if rel.any():
            total[:, blocks < rel] = 0.0                                # before first
        # the modes are spent; start fits in their array, as nb <= n and k = m
        start = np.subtract.accumulate(cat, axis=1,
                                       out=scratch("modes", cat.shape))  # (k, nb+1, w)
        exit_block = np.where(exits < w1, (exits - s0) // self.block, nb)
        crossed = ((total >= start[:, :-1]).any(axis=0)
                   & (blocks >= rel) & (blocks < exit_block))          # (nb, w)
        event = np.where(crossed.any(axis=0), crossed.argmax(axis=0), exit_block)
        self.budgets[tp, y, to] = start[:, event, np.arange(len(tp))]
        return event < nb, event

    def _block_totals(self, x, y, to, out):
        """(k, nb, w) block totals of the depletion of the rates out of the
        states y to the targets to (k, w), along x (n+1, w), into out."""
        scratch, tilts = self.scratch, self.tilts
        shape = (len(to),) + x.shape
        mv = tilts.modes(x, scratch("modes", (len(tilts.left),) + x.shape), scratch)
        term = scratch("term", shape) if len(mv) > 1 else None
        q = tilts.of(to[:, None, :], mv, scratch("q", shape), term)
        # the temporaries of modes are spent: tilt_y takes the array of its
        # gathers, and dep that of its positions
        q /= tilts.of(y, mv, scratch("gather", x.shape), None if term is None else term[0])
        q *= self.qz[y, to][:, None, :]                                 # (k, n+1, w)
        # _segment_depletion(qa, qb, 0.0, 1.0, dt), whose factors of 1.0
        # are exact, in place
        dep = np.subtract(q[:, 1:], q[:, :-1],
                          out=scratch("pos", (len(to), len(x) - 1, x.shape[1])))
        dep *= 0.5
        dep += q[:, :-1]
        dep *= self.dt
        return _block_sums(dep, self.block, out)

    def _replay(self, win, r0, w1, starts, paths, blocks, exit_steps, exit_fracs):
        """Run the given blocks step by step; returns the paths that go on
        and their next block."""
        blk = self.block
        width = max(1, _Y_TILE_ELEMS // (blk + 1))
        go_on, go_on_blocks = [paths[:0]], [blocks[:0]]
        for i0 in range(0, len(paths), width):
            tp, tb = paths[i0:i0 + width], blocks[i0:i0 + width]
            s0 = starts[tb]
            # steps each path runs in its block: up to and including its exit
            run = np.minimum(np.minimum(blk, w1 - s0), exit_steps[tp] - s0 + 1)
            steps = np.arange(blk)
            fend = np.where(steps[None, :] == (exit_steps[tp] - s0)[:, None],
                            exit_fracs[tp][:, None], 1.0)              # (R, blk)
            # rows past step w1 were never written; the steps they would
            # serve lie past every path's run
            rows = np.minimum(s0 - r0 + np.arange(blk + 1)[:, None], w1 - r0)
            tilts = self.tilts(win[rows, tp]).transpose(2, 0, 1)       # (R, m1, blk+1)
            k = np.zeros(len(tp), dtype=np.int64)                     # next step
            live = np.arange(len(tp))
            while live.size:
                live = self._replay_steps(tp, s0, live, k, run, fend, tilts)
            # alive at the next block of the window
            more = (s0 + blk < w1) & (exit_steps[tp] >= s0 + blk)
            go_on.append(tp[more])
            go_on_blocks.append(tb[more] + 1)
        return np.concatenate(go_on), np.concatenate(go_on_blocks)

    def _rates(self, tilts, y, to):
        """Rates out of the states y to the targets to (k, R), from tilts
        (R, m1, ...); (R, k, ...). The replay rounds a rate as (Q_ij tilt_j)
        / tilt_i and the scan as Q_ij (tilt_j / tilt_i): every pinned
        path depends on both, so neither order may change."""
        rows = np.arange(len(y))
        qz = self.qz[y, to].T
        num = tilts[rows[:, None], to.T] * qz.reshape(qz.shape + (1,) * (tilts.ndim - 2))
        return num / tilts[rows, y][:, None]

    def _replay_steps(self, tp, s0, live, k, run, fend, tilts):
        """From step k on, settle each live path up to its first step with a
        crossing and run that step's cascade; returns the paths with steps
        left in their block."""
        p, dt = tp[live], self.dt
        y, to, left = self._pairs(p)
        blk = fend.shape[1]
        q = self._rates(tilts[live], y, to)                           # (R, k, blk+1)
        fe = fend[live][:, None, :]
        dep = _segment_depletion(q[:, :, :-1], q[:, :, 1:], 0.0, fe, dt)
        steps = np.arange(blk)[None, :]
        todo = (steps >= k[live, None]) & (steps < run[live, None])   # (R, blk)
        start = np.subtract.accumulate(np.concatenate(
            (left.T[:, :, None], np.where(todo[:, None, :], dep, 0.0)), axis=2), axis=2)
        t = _crossing_fractions(q[:, :, :-1], q[:, :, 1:], 0.0, start[:, :, :-1], dt, fe)
        hit = (t < np.inf).any(axis=1) & todo
        fired = hit.any(axis=1)
        step = np.where(fired, hit.argmax(axis=1), run[live])
        self.budgets[p, y, to] = start[np.arange(len(p)), :, step].T
        live = live[fired]
        k[live] = step[fired] + 1
        self._cascade(tp, s0, live, step[fired], fend, tilts)
        return live[k[live] < run[live]]

    def _cascade(self, tp, s0, live, step, fend, tilts):
        """Jumps of the live paths inside their given step, in lockstep: each
        path fires the earliest clock of its current state, redraws it from
        its own stream and goes on from the crossing time, until no clock
        fires before the step ends."""
        dt = self.dt
        t0 = np.zeros(len(live))
        fe = fend[live, step]
        while live.size:
            p = tp[live]
            y, to, left = self._pairs(p)
            qa = self._rates(tilts[live, :, step], y, to)
            qb = self._rates(tilts[live, :, step + 1], y, to)
            t = _crossing_fractions(qa, qb, t0[:, None], left.T, dt, fe[:, None])
            j = t.argmin(axis=1)
            rows = np.arange(len(p))
            tstar = t[rows, j]
            fired = tstar < np.inf
            tend = np.where(fired, tstar, fe)
            self.budgets[p, y, to] = (left.T - _segment_depletion(
                qa, qb, t0[:, None], tend[:, None], dt)).T
            jf = to.T[rows, j][fired]
            pf, yf = p[fired], y[fired]
            times = (s0[live[fired]] + step[fired] + tstar[fired]) * dt
            for pi, yi, ji in zip(pf.tolist(), yf.tolist(), jf.tolist()):
                self.budgets[pi, yi, ji] = self.gens[pi].standard_exponential()
            self.log.append((pf, times, yf, jf))
            self.y[pf] = jf
            live, step, t0, fe = live[fired], step[fired], tstar[fired], fe[fired]

    def _interpolate(self, win, r0):
        """x at the new jump times, interpolated between the steps k = floor(t
        / dt) and k + 1 (capped at n_steps), as on the whole path. A jump
        whose step k + 1 lies past win waits for the next window, and so do
        its path's later jumps."""
        p, t, frm, to = (np.concatenate(col) for col in zip(*self.log))
        u = t / self.dt
        k = u.astype(np.int64)
        k1 = np.minimum(k + 1, self.n_steps)
        ready = k1 <= r0 + len(win) - 1
        self.log = [(p[~ready], t[~ready], frm[~ready], to[~ready])]
        p, u, k, k1 = p[ready], u[ready], k[ready], k1[ready]
        xk = win[np.minimum(k, self.n_steps) - r0, p]
        self.placed.append((p, t[ready], frm[ready], to[ready],
                            xk + (u - k) * (win[k1 - r0, p] - xk)))

    def columns(self) -> dict:
        """The Ensemble fields the walk fills: the jump log, ordered by path
        and then by event, with each path's range, and the clocks."""
        p, t, frm, to, x = (np.concatenate(col) for col in zip(*self.placed))
        order = np.argsort(p, kind="stable")
        offsets = np.zeros(len(self.gens) + 1, dtype=np.int64)
        np.cumsum(np.bincount(p, minlength=len(self.gens)), out=offsets[1:])
        return dict(jump_t=t[order], jump_from=frm[order], jump_to=to[order],
                    jump_x=x[order], jump_offsets=offsets, clocks=self.budgets)


def _window_steps(block: int, levels: int = 1) -> int:
    """Steps per window of one of levels noise levels that share a tape: the
    whole y-blocks that fit in the level's share of _NOISE_BLOCK, at least
    one."""
    return block * max(1, (_NOISE_BLOCK // levels) // block)


def simulate_x(potential: Potential, eps: float, x0: float, dt: float, T: float, rng):
    """Euler-Maruyama path: X_{k+1} = X_k - F'(X_k) dt + sqrt(2 eps dt) Z_k.

    Draws the noise vector from rng block by block, the same draws one call
    for the whole vector gives. Returns the (n_steps+1,) array of positions
    on the uniform grid k*dt.

    Raises:
        ValueError: dt exceeds max_stable_dt.
        BlowUpError: the path left [-bound, bound], bound ten times the
            larger of |x0| and the grid half-width, or became NaN.
    """
    _check_dt(potential, dt)
    n_steps = int(round(T / dt))
    path = _Diffusion(potential, eps, np.array([float(x0)]),
                      _NoiseTape([rng], n_steps, _NOISE_BLOCK), dt,
                      _escape_bound(potential, eps, x0),
                      np.arange(n_steps + 1))
    for _ in path.windows(_NOISE_BLOCK):
        pass
    return path.stored[:, 0]


def simulate_y_given_x(x_path, model: CouplingModel, y0: int, rng,
                       dt: float) -> Ensemble:
    """Chain path coupled to a given diffusion path by the time-change
    construction: the one-path Ensemble with x_path stored at every step,
    path index 0. rng drives the chain's clocks; in an ensemble that is
    clock_stream(seed, path_index)."""
    x_path = np.asarray(x_path, dtype=float)
    n_steps = len(x_path) - 1
    y0s = np.array([int(y0)])
    chain = _ChainWalk(model, y0s, [rng], dt, n_steps)
    # the whole path is one window
    chain.advance(x_path[:, None], 0, 0, n_steps,
                  np.array([n_steps + 1], dtype=np.int64), np.zeros(1))
    return Ensemble(times=_stored_steps(n_steps, 1) * dt, x=x_path[:, None], y0=y0s,
                    exit_time=np.full(1, np.nan), exit_x=np.zeros(1),
                    path_index=np.zeros(1, dtype=np.int64), **chain.columns())


def _run_chunk(cfg, models, potential, indices, stored=None):
    """The paths of the given indices at every model's noise level, one
    Ensemble per level; level l's stored x are written to stored[l], an
    (S, len(indices)) array, if given.

    The levels share the paths' streams: their initial uniforms are drawn
    once and mapped through each level's model, and their diffusions read
    one noise tape. The level furthest behind always runs its next window,
    so the tape holds at most the longest window's steps."""
    c, n_steps = len(indices), cfg.n_steps
    gens = [path_stream(cfg.seed, int(i)) for i in indices]
    u = initial_uniforms(gens) if cfg.x0 is None else None
    widths = [_window_steps(_y_block_size(model, cfg.dt), len(models)) for model in models]
    tape = _NoiseTape(gens, n_steps, max(widths))
    steps = _stored_steps(n_steps, cfg.store_stride)
    scratch = _Scratch()
    levels = []
    for model, out in zip(models, stored or [None] * len(models)):
        # simulate_x's rule, on the model's grid: a fixed start widens it
        bound = ESCAPE_FACTOR * max(float(np.max(np.abs(model.grid_nodes))),
                                    0.0 if cfg.x0 is None else abs(cfg.x0))
        x0s = np.empty(c)
        y0s = np.empty(c, dtype=np.int64)
        if u is None:
            x0s[:] = cfg.x0
            y0s[:] = cfg.y0
        else:
            x0s[:], y0s[:] = sample_initial(model, u)
        clocks = [clock_stream(cfg.seed, int(i)) for i in indices]
        levels.append((_Diffusion(potential, model.eps, x0s, tape, cfg.dt, bound, steps,
                                  cfg.absorb, out),
                       _ChainWalk(model, y0s, clocks, cfg.dt, n_steps, scratch), y0s))
    running = list(range(len(levels)))
    while running:
        level = min(running, key=lambda l: levels[l][0].w0)
        path, chain, _ = levels[level]
        w0, nw = path.advance(widths[level])
        chain.advance(path.win, w0 - 1, w0, w0 + nw, path.exit_steps, path.exit_fracs)
        # once every path is absorbed and no jump waits for its x, every
        # later row is an exit point
        stop = not path.active.any() and not chain.log[0][0].size
        if stop:
            path.stored[path.n_stored:] = path.exit_xs
        if stop or path.w0 == n_steps:
            running.remove(level)
    # every level is done with the noise: free the tape before the chunk's
    # columns are built, so they do not add to it at the chunk's peak
    tape.ring = tape.buf = None
    return [Ensemble(times=steps * cfg.dt, x=path.stored, y0=y0s, exit_time=np.where(
                         path.exit_steps <= n_steps,
                         (path.exit_steps + path.exit_fracs) * cfg.dt, np.nan),
                     exit_x=path.exit_xs, path_index=np.asarray(indices), **chain.columns())
            for path, chain, y0s in levels]


def _concatenate(parts, x) -> Ensemble:
    """One Ensemble of the chunk ensembles parts, in order, whose stored x
    are the columns of x."""
    if len(parts) == 1:
        return parts[0]

    def cat(name):
        return np.concatenate([getattr(e, name) for e in parts])

    counts = np.concatenate([np.diff(e.jump_offsets) for e in parts])
    return dataclasses.replace(
        parts[0], x=x, y0=cat("y0"), jump_t=cat("jump_t"), jump_from=cat("jump_from"),
        jump_to=cat("jump_to"), jump_x=cat("jump_x"),
        jump_offsets=np.concatenate(([0], np.cumsum(counts))),
        exit_time=cat("exit_time"), exit_x=cat("exit_x"), clocks=cat("clocks"),
        path_index=cat("path_index"))


def ensemble_chunks(cfg: EnsembleConfig, models, potential: Potential, xs=None):
    """The paths of cfg chunk by chunk, in path order: an iterator of one
    Ensemble per coupling model for each chunk, the levels advancing in
    lockstep on one draw of each path's stream. Level l's stored x are
    written to the chunk's columns of xs[l], an (S, n_paths) array, if given.

    Every level reads the same streams path_stream(seed, i): the same
    initial uniforms and the same normals, which differ between levels only
    by the factor sqrt(2 eps dt), eps that of the level's model. So the
    normals of a chunk of paths are drawn once, onto a tape every level's
    diffusion reads, instead of once per level. With workers > 1, chunks run
    in groups of workers, so at most that many wait to be taken.

    Raises (before any path runs):
        ValueError: no models, dt above max_stable_dt, or a fixed y0 that
            is not a state of every model.
    """
    if not models:
        raise ValueError("need at least one coupling model")
    _check_dt(potential, cfg.dt)
    if cfg.y0 is not None and any(cfg.y0 >= model.n_states for model in models):
        raise ValueError(f"y0 = {cfg.y0} is not a state of every model")
    n_stored = len(_stored_steps(cfg.n_steps, cfg.store_stride))
    # a path holds every level's stored rows and window, plus its rows of
    # the noise tape, as long as the longest window
    widths = [_window_steps(_y_block_size(model, cfg.dt), len(models)) for model in models]
    n_rows = len(models) * n_stored + sum(w + 2 for w in widths) + max(widths)
    chunk = max(1, min(int(_CHUNK_BYTES // (8 * n_rows)),
                       -(-cfg.n_paths // cfg.workers)))

    def run(s):
        ix = np.arange(s, min(s + chunk, cfg.n_paths))
        return _run_chunk(cfg, models, potential, ix,
                          None if xs is None else [x[:, ix[0]:ix[-1] + 1] for x in xs])

    starts = range(0, cfg.n_paths, chunk)
    if cfg.workers == 1 or len(starts) == 1:
        return map(run, starts)
    return _in_groups(run, starts, cfg.workers)


def _in_groups(fn, items, workers):
    """fn of each item, in order, run on workers threads a group of workers
    items at a time."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for k in range(0, len(items), workers):
            yield from pool.map(fn, items[k:k + workers])


def simulate_ensembles(cfg: EnsembleConfig, models, potential: Potential) -> list:
    """One ensemble per coupling model, as simulate_ensemble gives each: the
    chunks of ensemble_chunks, joined."""
    n_stored = len(_stored_steps(cfg.n_steps, cfg.store_stride))
    xs = [np.empty((n_stored, cfg.n_paths)) for _ in models]
    parts = list(ensemble_chunks(cfg, models, potential, xs))
    return [_concatenate(level, x) for level, x in zip(zip(*parts), xs)]


def simulate_ensemble(cfg: EnsembleConfig, model: CouplingModel,
                      potential: Potential) -> Ensemble:
    """Independent coupled paths at the model's eps, each with its stream
    and clock substream.

    Each path of the result, stored at every step, is bit-identical, but
    for its path index, to running sample_initial + simulate_x on
    path_stream(seed, index), then simulate_y_given_x on clock_stream(seed,
    index), regardless of chunking or the number of workers. This is
    simulate_ensembles at one level.
    """
    return simulate_ensembles(cfg, [model], potential)[0]


def _first_per_path(hits, offsets):
    """The first of the ascending row indices hits in each path's range of
    offsets, and those paths."""
    path = np.searchsorted(offsets, hits, side="right") - 1
    first = np.ones(len(hits), dtype=bool)
    first[1:] = path[1:] != path[:-1]
    return hits[first], path[first]


def _x_interval(region) -> tuple:
    """(lo, hi) of an x region, which must not be empty."""
    lo, hi = float(region[0]), float(region[1])
    if not lo < hi:
        raise ValueError("empty region")
    return lo, hi


def _first_x_hits(rows: Rows, lo: float, hi: float):
    """The paths of one Rows chunk (indices into it) whose x hits [lo, hi],
    and the time of each one's first hit: 0 where the path starts inside,
    else by linear interpolation between the rows that straddle the
    boundary."""
    i, path = _first_per_path(np.flatnonzero((rows.x >= lo) & (rows.x <= hi)),
                              rows.offsets)
    times = np.zeros(len(i))
    later = i != rows.offsets[path]
    i = i[later]
    prev, cur = rows.x[i - 1], rows.x[i]
    boundary = np.where(prev < lo, lo, hi)
    denom = cur - prev
    frac = np.divide(boundary - prev, denom, out=np.zeros(len(i)), where=denom != 0)
    t0, t1 = rows.t[i - 1], rows.t[i]
    times[later] = t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0)
    return path, times


def first_exit_time(ensemble: Ensemble, region, target: str = "x") -> np.ndarray:
    """(P,) first time each path's chosen component hits the region, NaN
    where it does not.

    For the diffusion the region is an interval (lo, hi), read on each
    path's rows (Ensemble.rows), and the hit is located by linear
    interpolation between the rows that straddle the boundary; for the
    chain the region is a set of states and the exact jump time is
    returned. A path that starts inside hits at 0.
    """
    out = np.full(len(ensemble), np.nan)
    if target == "y":
        states = [int(s) for s in region]
        jumps, path = _first_per_path(np.flatnonzero(np.isin(ensemble.jump_to, states)),
                                      ensemble.jump_offsets)
        out[path] = ensemble.jump_t[jumps]
        out[np.isin(ensemble.y0, states)] = 0.0
        return out
    if target != "x":
        raise ValueError("target must be 'x' or 'y'")
    lo, hi = _x_interval(region)
    for a, b in ensemble.row_chunks():
        path, times = _first_x_hits(ensemble.rows(a, b), lo, hi)
        out[a + path] = times
    return out

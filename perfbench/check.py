"""Independent output checks for one benchmark run.

Nothing here calls into the program under test: the checker replays the
fleet from its starting positions using the trace, the run's recorded
assignments and its own NumPy arithmetic, and verifies

* every request has exactly one outcome, and served + abandoned +
  pending adds up to the trace; abandonment matches a replay of the
  patience rule;
* no taxi is dispatched while busy (or twice in one frame), and every
  dispatched request was queued at that frame;
* per frame, the replayed queue, idle, dispatched and abandoned counts
  equal the run's ``frame_stats``;
* non-sharing runs: no matched pair is beyond either dummy threshold and
  no blocking pair exists under Definition 1 with id tie-breaks.  With a
  homogeneous α the stable matching is unique, so this pins the exact
  matching without a stored copy;
* sharing runs: groups are disjoint and fit ``max_group_size`` and the
  taxi's seats; each recorded drive equals the deadhead to the first stop
  plus the shortest precedence-feasible stop order that keeps every
  member's detour within θ (found by brute force, at most 90 orders);
  each member's ridden detour, read from its pickup and dropoff times,
  is within θ;
* durable runs: the journal has one record per frame, each record's
  CRC-32 matches a value recomputed with :mod:`zlib`, its counts and
  pair digest match the run, and the newest snapshot's checksum
  verifies.

A fault tied to one frame marks that frame (an *operation*) as failed;
a fault in run-wide bookkeeping or in the durable artifacts is a
run-level error.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["CheckReport", "check_run"]

#: Float slack for recomputed distances (km) and times (s).  Both sides
#: use the same IEEE operations, so real differences are far larger.
_KM_TOL = 1e-6
_S_TOL = 1e-4


@dataclass
class CheckReport:
    """What the checker found in one run."""

    #: Frames in which the dispatcher ran (idle taxis and queued requests).
    ops: int = 0
    #: Frame index -> faults found in that frame.
    bad_frames: dict[int, list[str]] = field(default_factory=lambda: defaultdict(list))
    #: Faults not tied to a single frame.
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bad_frames and not self.errors

    def faults(self) -> list[str]:
        """Every fault found, frame faults first, as readable lines."""
        lines = [
            f"frame {index}: {fault}"
            for index in sorted(self.bad_frames)
            for fault in self.bad_frames[index]
        ]
        return lines + list(self.errors)


def _dist(ax, ay, bx, by):
    """Euclidean distance as ``sqrt(dx*dx + dy*dy)``, elementwise."""
    dx = np.subtract(ax, bx)
    dy = np.subtract(ay, by)
    return np.sqrt(dx * dx + dy * dy)


def _orders(n: int) -> list[tuple[tuple[int, bool], ...]]:
    """Every stop order of ``n`` riders with each pickup before its dropoff."""
    stops = [(m, True) for m in range(n)] + [(m, False) for m in range(n)]
    out = []
    for perm in itertools.permutations(stops):
        seen: set[int] = set()
        for member, is_pickup in perm:
            if is_pickup:
                seen.add(member)
            elif member not in seen:
                break
        else:
            out.append(perm)
    return out


_ORDERS = {n: _orders(n) for n in (1, 2, 3)}


def _route_options(px, py, qx, qy, trip, theta):
    """Shortest θ-respecting stop orders of one group, by brute force.

    Returns ``(length_km, order)`` for every order within float slack of
    the shortest; ``length_km`` runs from the first stop to the last.
    """
    n = len(px)
    pts = [(px[m], py[m]) if pick else (qx[m], qy[m]) for m in range(n) for pick in (True, False)]

    def index(member: int, is_pickup: bool) -> int:
        return 2 * member + (0 if is_pickup else 1)

    feasible = []
    for order in _ORDERS[n]:
        length = 0.0
        pickup_at = {}
        ok = True
        prev = index(*order[0])
        pickup_at[order[0][0]] = 0.0
        for member, is_pickup in order[1:]:
            cur = index(member, is_pickup)
            (ax, ay), (bx, by) = pts[prev], pts[cur]
            length += math.sqrt((ax - bx) * (ax - bx) + (ay - by) * (ay - by))
            prev = cur
            if is_pickup:
                pickup_at[member] = length
            elif length - pickup_at[member] - trip[member] > theta + 1e-9:
                ok = False
                break
        if ok:
            feasible.append((length, order))
    if not feasible:
        return []
    best = min(length for length, _ in feasible)
    return [(length, order) for length, order in feasible if length <= best + 1e-9]


def check_run(kind, fleet, requests, sim_config, result, durable_dir: Path | None = None):
    """Check one run's :class:`SimulationResult` against an independent replay.

    ``kind`` is ``"nstd"`` (stable non-sharing matching) or ``"share"``
    (Algorithm 3 groups).  Returns a :class:`CheckReport`.
    """
    report = CheckReport()
    dcfg = sim_config.dispatch
    speed_kms = sim_config.taxi_speed_kmh / 3600.0
    patience = sim_config.passenger_patience_s

    ordered = sorted(requests, key=lambda r: (r.request_time_s, r.request_id))
    n = len(ordered)
    rid = np.array([r.request_id for r in ordered], dtype=np.int64)
    rt = np.array([r.request_time_s for r in ordered])
    px = np.array([r.pickup.x for r in ordered])
    py = np.array([r.pickup.y for r in ordered])
    qx = np.array([r.dropoff.x for r in ordered])
    qy = np.array([r.dropoff.y for r in ordered])
    pax = np.array([r.passengers for r in ordered], dtype=np.int64)
    trip = _dist(px, py, qx, qy)
    row_of_request = {int(r): i for i, r in enumerate(rid)}

    taxi_ids = np.array([t.taxi_id for t in fleet], dtype=np.int64)
    row_of_taxi = {int(t): i for i, t in enumerate(taxi_ids)}
    tx = np.array([t.location.x for t in fleet])
    ty = np.array([t.location.y for t in fleet])
    seats = np.array([t.seats for t in fleet], dtype=np.int64)
    avail = np.zeros(len(fleet))

    # -- outcomes ----------------------------------------------------------
    outcome_of: dict[int, object] = {}
    for outcome in result.outcomes:
        if outcome.request_id in outcome_of:
            report.errors.append(f"request {outcome.request_id} has two outcomes")
        outcome_of[outcome.request_id] = outcome
    if set(outcome_of) != set(row_of_request):
        report.errors.append(
            f"outcomes cover {len(outcome_of)} ids, trace has {n}; "
            f"{len(set(row_of_request) - set(outcome_of))} missing"
        )
    served = sum(1 for o in outcome_of.values() if o.dispatch_time_s is not None)
    abandoned = sum(1 for o in outcome_of.values() if o.abandoned)
    both = sum(1 for o in outcome_of.values() if o.abandoned and o.dispatch_time_s is not None)
    pending = sum(
        1 for o in outcome_of.values() if not o.abandoned and o.dispatch_time_s is None
    )
    if both or served + abandoned + pending != n:
        report.errors.append(
            f"served {served} + abandoned {abandoned} + pending {pending} != {n} "
            f"({both} both served and abandoned)"
        )

    # -- assignments -------------------------------------------------------
    by_time: dict[float, list] = defaultdict(list)
    assigned_once: set[int] = set()
    for record in result.assignments:
        by_time[record.frame_time_s].append(record)
        for r in record.request_ids:
            if r in assigned_once:
                report.errors.append(f"request {r} assigned twice")
            assigned_once.add(r)
    served_ids = {i for i, o in outcome_of.items() if o.dispatch_time_s is not None}
    if served_ids != assigned_once:
        report.errors.append(
            f"{len(served_ids ^ assigned_once)} requests differ between served outcomes "
            "and assignment records"
        )
    frame_times = [f.time_s for f in result.frame_stats]
    stray = set(by_time) - set(frame_times)
    if stray:
        report.errors.append(f"assignments at {len(stray)} times that ran no frame")
    if len(frame_times) != result.frames_run:
        report.errors.append(
            f"{len(frame_times)} frame stats for {result.frames_run} frames run"
        )


    # -- frame-by-frame replay --------------------------------------------
    live: dict[int, int] = {}  # request id -> row, in admission order
    expired: set[int] = set()
    cursor = 0
    runtime_ops = sum(1 for f in result.frame_stats if f.dispatch_ms > 0.0)
    frame_pairs: list[list[tuple[int, int]]] = []
    for index, stats in enumerate(result.frame_stats):
        t = stats.time_s
        bad: list[str] = []
        while cursor < n and rt[cursor] <= t:
            live[int(rid[cursor])] = cursor
            cursor += 1
        expired_now = []
        for r, row in live.items():
            if t - rt[row] <= patience:
                break
            expired_now.append(r)
        for r in expired_now:
            del live[r]
            expired.add(r)
        idle = np.flatnonzero(avail <= t)
        queue_rows = np.fromiter(live.values(), dtype=np.int64, count=len(live))
        records = by_time.get(t, [])
        observed = (stats.queue_length, stats.idle_taxis, stats.dispatched_requests,
                    stats.abandoned)
        expected = (len(queue_rows), len(idle), sum(len(a.request_ids) for a in records),
                    len(expired_now))
        if observed != expected:
            bad.append(
                f"frame stats (queue, idle, dispatched, abandoned) {observed} "
                f"!= replay {expected}"
            )
        is_op = len(queue_rows) > 0 and len(idle) > 0
        report.ops += is_op
        if records and not is_op:
            bad.append("assignments in a frame with no idle taxi or no queue")

        used: set[int] = set()
        pairs: list[tuple[int, int]] = []
        matched: list[tuple[int, int]] = []  # (taxi row, request row)
        moves: list[tuple[int, tuple[float, float, float]]] = []
        for record in records:
            pairs.extend((r, record.taxi_id) for r in record.request_ids)
            taxi = row_of_taxi.get(record.taxi_id)
            if taxi is None:
                bad.append(f"unknown taxi {record.taxi_id}")
                continue
            if taxi in used:
                bad.append(f"taxi {record.taxi_id} dispatched twice")
            used.add(taxi)
            if avail[taxi] > t:
                bad.append(
                    f"taxi {record.taxi_id} dispatched while busy until {avail[taxi]:.1f}s"
                )
            rows = []
            for r in record.request_ids:
                o = outcome_of.get(r)
                if o is None or o.dispatch_time_s != t or o.taxi_id != record.taxi_id:
                    bad.append(f"request {r}'s outcome disagrees with its assignment")
                if r in live:
                    rows.append(live[r])
                else:
                    bad.append(f"request {r} dispatched while not queued")
            if len(rows) != len(record.request_ids) or any(
                outcome_of.get(r) is None for r in record.request_ids
            ):
                continue
            ride = [outcome_of[r] for r in record.request_ids]
            if kind == "share":
                end = _check_group(bad, record, rows, taxi, t, tx, ty, px, py, qx, qy,
                                   trip, pax, seats, dcfg, speed_kms, ride)
            else:
                matched.append((taxi, rows[0]))
                end = _check_single(bad, record, rows[0], taxi, t, tx, ty, px, py, qx, qy,
                                    trip, speed_kms, ride[0])
            if end is not None:
                moves.append((taxi, end))
        frame_pairs.append(pairs)
        if kind == "nstd" and is_op:
            _check_stable(bad, matched, idle, queue_rows, taxi_ids, seats, tx, ty,
                          rid, pax, px, py, trip, dcfg)
        for taxi, (free_at, x, y) in moves:
            avail[taxi], tx[taxi], ty[taxi] = free_at, x, y
        for record in records:
            for r in record.request_ids:
                live.pop(r, None)
        if bad:
            report.bad_frames[index].extend(bad)

    if report.ops != runtime_ops:
        report.errors.append(
            f"replay finds {report.ops} dispatch frames, the run timed {runtime_ops}"
        )
    flagged = {i for i, o in outcome_of.items() if o.abandoned}
    if flagged != expired:
        report.errors.append(
            f"{len(flagged ^ expired)} requests' abandonment disagrees with the patience replay"
        )
    if durable_dir is not None:
        _check_durable(report, Path(durable_dir), result.frame_stats, frame_pairs)
    return report


def _check_single(bad, record, row, taxi, t, tx, ty, px, py, qx, qy, trip, speed_kms, outcome):
    """One non-sharing ride: drive, pickup and dropoff times.

    Returns the taxi's ``(free_at_s, x, y)`` after the ride.
    """
    dx, dy = tx[taxi] - px[row], ty[taxi] - py[row]
    deadhead = math.sqrt(dx * dx + dy * dy)
    ride = float(trip[row])
    if abs(record.total_drive_km - (deadhead + ride)) > _KM_TOL:
        bad.append(
            f"taxi {record.taxi_id} drive {record.total_drive_km:.6f} km != "
            f"deadhead + trip {deadhead + ride:.6f} km"
        )
    pickup_s = t + deadhead / speed_kms
    dropoff_s = pickup_s + ride / speed_kms
    if (
        outcome.pickup_time_s is None
        or outcome.dropoff_time_s is None
        or abs(outcome.pickup_time_s - pickup_s) > _S_TOL
        or abs(outcome.dropoff_time_s - dropoff_s) > _S_TOL
    ):
        bad.append(f"request {outcome.request_id}'s pickup/dropoff times disagree with replay")
    return dropoff_s, float(qx[row]), float(qy[row])


def _check_group(bad, record, rows, taxi, t, tx, ty, px, py, qx, qy, trip, pax, seats,
                 dcfg, speed_kms, outcomes):
    """One sharing assignment: size, seats, route length and ridden detours.

    Returns the taxi's ``(free_at_s, x, y)`` after the route, or ``None``
    when no route explains the recorded drive.
    """
    rows_arr = np.asarray(rows)
    theta = dcfg.theta_km
    if len(rows) > dcfg.max_group_size:
        bad.append(f"taxi {record.taxi_id} carries a group of {len(rows)}")
    if int(pax[rows_arr].sum()) > int(seats[taxi]):
        bad.append(f"taxi {record.taxi_id} carries {int(pax[rows_arr].sum())} passengers")
    for o, row in zip(outcomes, rows):
        if o.pickup_time_s is None or o.dropoff_time_s is None:
            bad.append(f"request {o.request_id} has no ride times")
            continue
        onboard = (o.dropoff_time_s - o.pickup_time_s) * speed_kms
        if onboard - float(trip[row]) > theta + _KM_TOL:
            bad.append(
                f"request {o.request_id} rode a {onboard - float(trip[row]):.3f} km detour "
                f"> θ = {theta:.3f} km"
            )
    options = _route_options(px[rows_arr], py[rows_arr], qx[rows_arr], qy[rows_arr],
                             trip[rows_arr], theta)
    if not options:
        bad.append(f"no stop order of group {record.request_ids} keeps every detour within θ")
        return None
    stops = [
        ((px[row], py[row]), (qx[row], qy[row])) for row in rows
    ]
    candidates = []
    for length, order in options:
        member, is_pickup = order[0]
        fx, fy = stops[member][0 if is_pickup else 1]
        deadhead = math.sqrt((tx[taxi] - fx) ** 2 + (ty[taxi] - fy) ** 2)
        candidates.append(deadhead + length)
        if abs(record.total_drive_km - (deadhead + length)) <= _KM_TOL:
            break
    else:
        bad.append(
            f"taxi {record.taxi_id} drive {record.total_drive_km:.6f} km != deadhead + "
            f"shortest θ-respecting route {min(candidates):.6f} km"
        )
        return None
    clock = t
    x, y = float(tx[taxi]), float(ty[taxi])
    for member, is_pickup in order:
        nx, ny = stops[member][0 if is_pickup else 1]
        clock += math.sqrt((x - nx) * (x - nx) + (y - ny) * (y - ny)) / speed_kms
        x, y = float(nx), float(ny)
    return clock, x, y


def _check_stable(bad, matched, idle, queue_rows, taxi_ids, seats, tx, ty, rid, pax,
                  px, py, trip, dcfg):
    """Thresholds and Definition 1 blocking pairs for one frame's matching."""
    T, R = idle, queue_rows
    P = _dist(tx[T][:, None], ty[T][:, None], px[R][None, :], py[R][None, :])
    S = P - dcfg.alpha * trip[R][None, :]
    ok_seats = seats[T][:, None] >= pax[R][None, :]
    ok_p = P <= dcfg.passenger_threshold_km
    ok_t = S <= dcfg.taxi_threshold_km
    acceptable = ok_seats & ok_p & ok_t

    col_of_taxi = np.full(len(taxi_ids), -1, dtype=np.int64)
    col_of_taxi[T] = np.arange(len(T))
    col_of_request = np.full(len(rid), -1, dtype=np.int64)
    col_of_request[R] = np.arange(len(R))
    pairs = np.array(matched, dtype=np.int64).reshape(-1, 2)
    mt = col_of_taxi[pairs[:, 0]]
    mr = col_of_request[pairs[:, 1]]
    keep = (mt >= 0) & (mr >= 0)  # the rest were reported as busy/not queued
    mt, mr = mt[keep], mr[keep]
    for i, j in zip(mt.tolist(), mr.tolist()):
        if not acceptable[i, j]:
            why = "passenger" if not ok_p[i, j] else "taxi" if not ok_t[i, j] else "seat"
            bad.append(
                f"taxi {int(taxi_ids[T[i]])} / request {int(rid[R[j]])} is beyond the "
                f"{why} threshold (pickup {P[i, j]:.3f} km, taxi score {S[i, j]:.3f})"
            )

    big = np.iinfo(np.int64).max
    p_cur = np.full(len(R), np.inf)
    p_cur[mr] = P[mt, mr]
    t_cur = np.full(len(R), big, dtype=np.int64)
    t_cur[mr] = taxi_ids[T][mt]
    s_cur = np.full(len(T), np.inf)
    s_cur[mt] = S[mt, mr]
    r_cur = np.full(len(T), big, dtype=np.int64)
    r_cur[mt] = rid[R][mr]
    tid = taxi_ids[T][:, None]
    rqid = rid[R][None, :]
    request_prefers = (P < p_cur) | ((P == p_cur) & (tid < t_cur))
    taxi_prefers = (S < s_cur[:, None]) | ((S == s_cur[:, None]) & (rqid < r_cur[:, None]))
    blocking = np.argwhere(acceptable & request_prefers & taxi_prefers)
    if len(blocking):
        i, j = blocking[0]
        bad.append(
            f"{len(blocking)} blocking pairs, e.g. taxi {int(taxi_ids[T[i]])} / "
            f"request {int(rid[R[j]])}"
        )


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _check_durable(report, directory: Path, frame_stats, frame_pairs):
    """Journal records and the newest snapshot of a durable run."""
    journal = directory / "journal.jsonl"
    if not journal.exists():
        report.errors.append("durable run left no journal")
        return
    kinds = []
    frames = []
    for line_no, line in enumerate(journal.read_bytes().splitlines(), start=1):
        try:
            record = json.loads(line)
        except ValueError:
            report.errors.append(f"journal line {line_no} is not JSON")
            continue
        if not isinstance(record, dict) or "crc" not in record:
            report.errors.append(f"journal line {line_no} has no CRC")
            continue
        claimed = record.pop("crc")
        if claimed != zlib.crc32(_canonical(record)):
            report.errors.append(f"journal line {line_no} fails its CRC-32")
        kinds.append(record.get("kind"))
        if record.get("kind") == "frame":
            frames.append(record)
    if kinds[:1] != ["header"] or kinds[-1:] != ["end"]:
        report.errors.append("journal lacks its header or end record")
    if len(frames) != len(frame_stats):
        report.errors.append(f"journal has {len(frames)} frame records for "
                             f"{len(frame_stats)} frames")
    for index, (record, stats, pairs) in enumerate(zip(frames, frame_stats, frame_pairs)):
        expected = (index, stats.time_s, stats.queue_length, stats.idle_taxis,
                    stats.dispatched_requests, stats.abandoned)
        got = tuple(record.get(k) for k in ("frame", "time_s", "queue", "idle",
                                             "dispatched", "abandoned"))
        if got != expected:
            report.bad_frames[index].append(f"journal record {got} != frame stats {expected}")
        text = "|".join(f"{r}:{t}" for r, t in sorted(pairs))
        if record.get("pairs_crc") != zlib.crc32(text.encode("utf-8")):
            report.bad_frames[index].append("journal pair digest disagrees with assignments")
    snapshots = sorted(directory.glob("snap-*.json"))
    if not snapshots:
        report.errors.append("durable run left no snapshot")
        return
    try:
        body = json.loads(snapshots[-1].read_bytes())
        claimed = body.pop("crc")
    except (ValueError, KeyError, AttributeError):
        report.errors.append(f"snapshot {snapshots[-1].name} is unreadable")
        return
    if claimed != zlib.crc32(_canonical(body)):
        report.errors.append(f"snapshot {snapshots[-1].name} fails its CRC-32")
    if body.get("finished") is not True:
        report.errors.append(f"newest snapshot {snapshots[-1].name} is not the finished one")

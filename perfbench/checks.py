"""Output checks computed apart from the program under test.

Every checker takes a parsed JSON report (and, for factor maps, the SVG
text) together with the inputs the benchmark generated itself, recomputes
what the method guarantees with plain numpy, and raises ``CheckFailure`` on
the first mismatch.  Nothing here imports ``taxicab_ca`` and nothing is
compared against stored copies of earlier output.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET

import numpy as np

# Identities below hold exactly in exact arithmetic; 1e-9 relative leaves
# room for rounding in either implementation and none for a wrong answer
# (a corrupted delta is off by 1e-3).
REL = 1e-9
# A projection at or below this share of delta has no meaningful sign; the
# program lists such coordinates as indeterminate (INDETERMINATE_TOL).
INDETERMINATE = 1e-9
HALF = 0.5 + 1e-12
OCTANT_PARITY = (1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0)
BLOCK_PARITY = (1.0, -1.0, -1.0, 1.0)

# Paper values of the asbestos table, axis 1 (and axis 2 where tabulated).
ASBESTOS = {
    "delta1": 0.5328,
    "u1": [-1.0, 1.0, 1.0, 1.0],
    "v1": [-1.0, -1.0, 1.0, 1.0, 1.0],
    "a1": [-0.2362, -0.0303, 0.0334, 0.1340, 0.0990],
    "b1": [-0.2664, 0.0780, 0.1302, 0.0582],
    "f1": [-0.7624, -0.0892, 0.4841, 0.7718, 0.9138],
    "g1": [-0.5175, 0.2380, 1.1553, 1.2981],
    "delta2": 0.2132,
    "b2": [0.0, -0.1066, 0.0640, 0.0426],
    "g2": [0.0, -0.3257, 0.5681, 0.9521],
}
# americas axis 2: label -> (CA contribution, TCA contribution)
AMERICAS_AXIS2 = {
    "Canada": (0.409, 0.088),
    "UnitedStates": (0.409, 0.088),
    "NAFTA": (0.821, 0.10),
}


class CheckFailure(Exception):
    """An output of the program contradicts what the method guarantees."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def residual(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_ij = p_ij - p_i. p_.j with the row and column masses."""
    p = counts / counts.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    return p - np.outer(r, c), r, c


def max_norm(x: np.ndarray) -> float:
    """max ||x s||_1 over sign vectors s of the smaller side, by a Gray-code walk.

    Each step flips one sign and updates the projection by one column, which
    is a different algorithm from the program's batched matrix products.
    """
    m = x if x.shape[1] <= x.shape[0] else x.T
    q = m.shape[1]
    s = np.ones(q)
    y = m.sum(axis=1)
    best = float(np.abs(y).sum())
    for k in range(1, 1 << (q - 1)):
        j = (k & -k).bit_length()  # flips s[1..q-1]; s[0] stays +1
        y -= 2.0 * s[j] * m[:, j]
        s[j] = -s[j]
        best = max(best, float(np.abs(y).sum()))
    return best


def fixed_point_search(x: np.ndarray, extra_starts: int, seed: int) -> float:
    """Best delta over alternating sign iterations from many starts.

    Starts from the sign of every column and every row of x and from
    ``extra_starts`` random sign vectors; used as the reference where exact
    enumeration is out of reach.
    """
    rng = np.random.default_rng(seed)
    n, m = x.shape
    starts = [sign(x.T @ sign(x[:, j])) for j in range(m)]
    starts += [sign(x[i, :]) for i in range(n)]
    starts += [rng.choice([-1.0, 1.0], size=m) for _ in range(extra_starts)]
    best = 0.0
    for u in starts:
        value = -1.0
        while True:
            a = x @ u
            new = float(np.abs(a).sum())
            if new <= value:
                break
            value = new
            u = sign(x.T @ sign(a))
        best = max(best, value)
    return best


def check_tca(report: dict, counts: np.ndarray, *, axes: int, exact: bool,
              flips: bool = False) -> list[float]:
    """Transition, dispersion and block-sum identities of every TCA axis.

    The residual of each axis is deflated here (X - a b'/delta) from the
    reported sign vectors.  With ``flips``, no single sign flip of u may
    raise ||Xu||_1, which holds for an exact maximum.  Returns the deltas.
    """
    require(report["method"] == "tca", f"method {report['method']!r} is not tca")
    records = report["results"]["axes"]
    require(len(records) == axes, f"{len(records)} axes, expected {axes}")
    x, _, _ = residual(counts)
    deltas = []
    for rec in records:
        k = rec["axis"]
        u = np.asarray(rec["u"], dtype=float)
        v = np.asarray(rec["v"], dtype=float)
        require(np.all(np.abs(u) == 1.0) and np.all(np.abs(v) == 1.0),
                f"axis {k}: sign vectors not +-1")
        a = x @ u
        b = x.T @ v
        delta = float(np.abs(a).sum())
        require(delta > 0.0, f"axis {k}: zero dispersion")
        require(abs(rec["delta"] - delta) <= REL * delta,
                f"axis {k}: delta {rec['delta']!r} != ||Xu||_1 = {delta!r}")
        floor = INDETERMINATE * delta
        require(bool(np.all((v == sign(a)) | (np.abs(a) <= floor))),
                f"axis {k}: v != sign(Xu)")
        require(bool(np.all((u == sign(b)) | (np.abs(b) <= floor))),
                f"axis {k}: u != sign(X'v)")
        require(float(np.abs(np.asarray(rec["a"]) - a).max()) <= REL * delta,
                f"axis {k}: reported a != Xu")
        s_mask, t_mask = v > 0, u > 0
        blocks = [float(x[np.ix_(sm, tm)].sum())
                  for sm in (s_mask, ~s_mask) for tm in (t_mask, ~t_mask)]
        for got, reported, parity in zip(blocks, rec["block_sums"], BLOCK_PARITY):
            require(abs(got - parity * delta / 4.0) <= REL * delta,
                    f"axis {k}: block sum {got!r} != {parity * delta / 4.0!r}")
            require(abs(reported - got) <= REL * delta,
                    f"axis {k}: reported block sum {reported!r} != {got!r}")
        require(max(rec["rc_rows"] + rec["rc_cols"]) <= HALF,
                f"axis {k}: a contribution exceeds 1/2")
        require(rec["exact"] in (0, 1) and bool(rec["exact"]) is exact,
                f"axis {k}: exact is {rec['exact']!r}")
        if flips:
            flipped = np.abs(a[:, None] - 2.0 * x * u[None, :]).sum(axis=0)
            require(float(flipped.max()) <= delta * (1.0 + REL),
                    f"axis {k}: a single sign flip of u raises ||Xu||_1")
        deltas.append(delta)
        x = x - np.outer(a, b) / delta
    return deltas


def check_map(svg: bytes, report: dict) -> None:
    """The SVG parses as XML with one marker per row and per column at its scores."""
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    circles = [e for e in root.iter(ns + "circle") if "data-label" in e.attrib]
    squares = [e for e in root.iter(ns + "rect") if "data-label" in e.attrib]
    rows = report["inputs"]["row_labels"]
    cols = report["inputs"]["col_labels"]
    require([e.get("data-label") for e in circles] == rows, "row markers differ from rows")
    require([e.get("data-label") for e in squares] == cols, "column markers differ from columns")
    ax1, ax2 = report["results"]["axes"][:2]
    for markers, key in ((circles, "row_scores"), (squares, "col_scores")):
        for i, e in enumerate(markers):
            require(float(e.get("data-x")) == ax1[key][i]
                    and float(e.get("data-y")) == ax2[key][i],
                    f"marker {e.get('data-label')!r} is not at its scores")


def check_asbestos_table2(report: dict) -> None:
    """Axis 1 (and the tabulated part of axis 2) of the paper's asbestos table."""
    ax1, ax2 = report["results"]["axes"][:2]
    require(abs(ax1["delta"] - ASBESTOS["delta1"]) <= 5e-4, "asbestos delta1")
    flip = 1.0 if ax1["u"][0] == ASBESTOS["u1"][0] else -1.0
    for key in ("u", "v"):
        require(list(flip * np.asarray(ax1[key])) == ASBESTOS[key + "1"],
                f"asbestos axis 1: {key}")
    for key, field in (("a", "a"), ("b", "b"), ("f", "row_scores"), ("g", "col_scores")):
        got = flip * np.asarray(ax1[field])
        require(bool(np.allclose(got, ASBESTOS[key + "1"], rtol=0, atol=5e-4)),
                f"asbestos axis 1: {field} {got.tolist()}")
    require(abs(ax2["delta"] - ASBESTOS["delta2"]) <= 5e-4, "asbestos delta2")
    for key, field in (("b", "b"), ("g", "col_scores")):
        got = np.asarray(ax2[field])
        want = np.asarray(ASBESTOS[key + "2"])
        require(bool(np.allclose(got, want, atol=1e-3) or np.allclose(-got, want, atol=1e-3)),
                f"asbestos axis 2: {field} {got.tolist()}")


def _standardized(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = counts / counts.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    e = np.outer(r, c)
    return (p - e) / np.sqrt(e), r, c


def check_ca(report: dict, counts: np.ndarray, *, axes: int) -> None:
    """Singular values against numpy's SVD of the standardized residual."""
    require(report["method"] == "ca", f"method {report['method']!r} is not ca")
    s_mat, r, c = _standardized(counts)
    sv = np.linalg.svd(s_mat, compute_uv=False)
    records = report["results"]["axes"]
    require(len(records) == axes, f"{len(records)} CA axes, expected {axes}")
    sigma = np.array([rec["sigma"] for rec in records])
    require(bool(np.all(np.abs(sigma - sv[:axes]) <= REL * sv[0])),
            f"singular values {sigma.tolist()} != {sv[:axes].tolist()}")
    total = float((s_mat**2).sum())
    require(abs(report["results"]["total_inertia"] - total) <= REL * total,
            "total inertia")
    for rec in records:
        k = rec["axis"]
        require(abs(rec["lambda"] - rec["sigma"] ** 2) <= REL * total, f"axis {k}: lambda")
        for key, mass in (("row", r), ("col", c)):
            ctr = np.asarray(rec[key + "_ctr"])
            require(abs(ctr.sum() - 1.0) <= 1e-9, f"axis {k}: {key} contributions sum")
            inertia = float((mass * np.asarray(rec[key + "_scores"]) ** 2).sum())
            require(abs(inertia - rec["lambda"]) <= REL * total,
                    f"axis {k}: {key} scores carry {inertia!r}, not lambda")


def check_compare(report: dict, *, expected: dict | None = None) -> None:
    """CA and TCA contributions each sum to 1; TCA ones stay at most 1/2."""
    res = report["results"]
    points = res["rows"] + res["cols"]
    for section in ("rows", "cols"):
        for key in ("ca", "tca"):
            total = sum(p[key] for p in res[section])
            require(abs(total - 1.0) <= 1e-9, f"{section} {key} contributions sum to {total!r}")
    require(max(p["tca"] for p in points) <= HALF, "a TCA contribution exceeds 1/2")
    by_label = {p["label"]: p for p in points}
    for label, (want_ca, want_tca) in (expected or {}).items():
        got = by_label[label]
        require(abs(got["ca"] - want_ca) <= 0.005 and abs(got["tca"] - want_tca) <= 0.005,
                f"{label}: CA {got['ca']:.4f} TCA {got['tca']:.4f}, "
                f"expected {want_ca}/{want_tca}")


def check_seriation(report: dict, counts: np.ndarray) -> None:
    """Axis-1 blocks are (+c, -c, -c, +c) with c a quarter of the enumerated norm."""
    x, _, _ = residual(counts)
    res = report["results"]
    s_mask = np.zeros(x.shape[0], dtype=bool)
    t_mask = np.zeros(x.shape[1], dtype=bool)
    s_mask[res["s_opt"]] = True
    t_mask[res["t_opt"]] = True
    quarter = max_norm(x) / 4.0
    require(abs(res["cut_norm"] - quarter) <= REL * quarter,
            f"cut norm {res['cut_norm']!r} != {quarter!r}")
    blocks = [float(x[np.ix_(sm, tm)].sum())
              for sm in (s_mask, ~s_mask) for tm in (t_mask, ~t_mask)]
    for got, reported, parity in zip(blocks, res["block_sums"], BLOCK_PARITY):
        require(abs(got - parity * quarter) <= REL * quarter, f"block sum {got!r}")
        require(abs(reported - got) <= REL * quarter, f"reported block sum {reported!r}")


def check_dispersion(report: dict, column: np.ndarray) -> None:
    """d = 2 (sum of positive centered values) / n, and no rc_d above 1/2."""
    res = report["results"]
    x = column - column.mean()
    d = 2.0 * float(x[x > 0].sum()) / x.size
    require(abs(res["d"] - d) <= REL * d, f"d {res['d']!r} != {d!r}")
    require(max(res["rc_d"]) <= HALF, "an rc_d exceeds 1/2")
    require(abs(sum(res["rc_d"]) - 1.0) <= 1e-9, "rc_d do not sum to 1")


def set_partitions(n: int, k: int) -> np.ndarray:
    """All partitions of n items into k nonempty blocks, as block labels."""
    out = []
    for labels in itertools.product(range(k), repeat=n):
        top = -1
        for lab in labels:
            if lab > top + 1:
                break
            top = max(top, lab)
        else:
            if top == k - 1:
                out.append(labels)
    return np.array(out, dtype=int)


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    return (labels[..., None] == np.arange(k)).astype(float)


def partition_objective(x: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                        r: int, c: int, p: float) -> float:
    blocks = _onehot(rows, r).T @ x @ _onehot(cols, c)
    sizes = np.outer(np.bincount(rows, minlength=r), np.bincount(cols, minlength=c))
    return float((sizes * (np.abs(blocks) / sizes) ** p).sum())


def brute_force_cluster(x: np.ndarray, r: int, c: int, p: float) -> float:
    """Maximum of f_p over every pair of row and column set partitions."""
    col_parts = _onehot(set_partitions(x.shape[1], c), c)      # (K, m, c)
    col_sizes = col_parts.sum(axis=1)                            # (K, c)
    best = -np.inf
    for rows in set_partitions(x.shape[0], r):
        agg = _onehot(rows, r).T @ x                             # (r, m)
        blocks = np.einsum("am,kmb->kab", agg, col_parts)
        sizes = np.bincount(rows, minlength=r)[None, :, None] * col_sizes[:, None, :]
        best = max(best, float((sizes * (np.abs(blocks) / sizes) ** p).sum(axis=(1, 2)).max()))
    return best


def check_cluster(report: dict, counts: np.ndarray, *, r: int, c: int, p: float,
                  optimum: float | None = None) -> None:
    """The partition is valid and scores its reported objective (and the optimum)."""
    res = report["results"]
    x, _, _ = residual(counts)
    labels = []
    for blocks, size, want in ((res["row_blocks"], x.shape[0], r),
                               (res["col_blocks"], x.shape[1], c)):
        require(len(blocks) == want and all(blocks), f"{len(blocks)} blocks, expected {want}")
        assign = np.full(size, -1)
        for label, block in enumerate(blocks):
            assign[block] = label
        require(sorted(i for b in blocks for i in b) == list(range(size)),
                "blocks do not partition the indices")
        labels.append(assign)
    value = partition_objective(x, labels[0], labels[1], r, c, p)
    require(abs(res["objective"] - value) <= REL * value,
            f"objective {res['objective']!r} != {value!r} of its partition")
    if optimum is not None:
        require(abs(value - optimum) <= REL * optimum,
                f"objective {value!r} != optimum {optimum!r}")


def triple_centered(y: np.ndarray) -> np.ndarray:
    """Apply the centering projector I - 11'/n along each of the three modes."""
    h = [np.eye(d) - 1.0 / d for d in y.shape]
    return np.einsum("ia,jb,kc,abc->ijk", h[0], h[1], h[2], y, optimize=True)


def max_trilinear(x: np.ndarray) -> float:
    """Exact tensor sign norm: all sign pairs on the two smallest modes."""
    order = np.argsort(x.shape, kind="stable")
    xp = np.transpose(x, order)
    q1, q2 = xp.shape[:2]
    signs2 = np.array(list(itertools.product((1.0, -1.0), repeat=q2)))
    best = 0.0
    for tail in itertools.product((1.0, -1.0), repeat=q1 - 1):
        s1 = np.array((1.0,) + tail)
        fibers = signs2 @ np.tensordot(s1, xp, axes=(0, 0))     # (2^q2, q3)
        best = max(best, float(np.abs(fibers).sum(axis=1).max()))
    return best


def check_tensor(report: dict, values: np.ndarray, *, exact: bool,
                 heuristic_delta: float | None = None) -> float:
    """Octant sums are +-delta/8 with parity signs; exact deltas are maxima."""
    res = report["results"]
    x = triple_centered(values)
    u, v, w = (np.asarray(res[k], dtype=float) for k in ("u", "v", "w"))
    delta = float(np.einsum("ijk,i,j,k->", x, u, v, w))
    require(delta > 0.0 and abs(res["delta"] - delta) <= REL * delta,
            f"delta {res['delta']!r} != trilinear value {delta!r}")
    masks = [(vec > 0, vec <= 0) for vec in (u, v, w)]
    own = [float(x[np.ix_(si, sj, sk)].sum())
           for si in masks[0] for sj in masks[1] for sk in masks[2]]
    for got, reported, parity in zip(own, res["octant_sums"], OCTANT_PARITY):
        require(abs(got - parity * delta / 8.0) <= REL * delta, f"octant sum {got!r}")
        require(abs(reported - parity * delta / 8.0) <= REL * delta,
                f"reported octant sum {reported!r} != {parity * delta / 8.0!r}")
    require(res["exact"] in (0, 1) and bool(res["exact"]) is exact,
            f"exact is {res['exact']!r}")
    if exact:
        best = max_trilinear(x)
        require(abs(delta - best) <= REL * best, f"delta {delta!r} != maximum {best!r}")
        if heuristic_delta is not None:
            require(heuristic_delta <= delta * (1.0 + REL),
                    f"heuristic delta {heuristic_delta!r} exceeds exact {delta!r}")
    return delta

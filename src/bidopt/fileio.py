"""File formats: instance JSON, fixed-format MPS with an SOS section,
solution files and a solution verifier.

All writers produce deterministic bytes for a given input.  Floats in
MPS files are serialized with repr() so a write/read cycle reproduces
every coefficient bit-for-bit; solution files use fixed 12-decimal
formatting for stable goldens.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain, zip_longest

import numpy as np

from .model import Business, Campaign, Instance, LpModel, build_model
from .search import SolveReport, interpolate_bids

VERIFY_TOL = 1e-6
VERIFY_ZERO_TOL = 1e-6

_NAME_W = 20  # name field width in MPS data lines


# ---------------------------------------------------------------------------
# instance JSON

def instance_to_json(instance: Instance) -> str:
    """One object: impression_budget, businesses[], campaigns[] with
    nested levels[].  Business campaign lists are derivable and not
    serialized."""
    doc = {
        "impression_budget": instance.impression_budget,
        "businesses": [
            {"id": b.id, "budget": b.budget, "cpc": b.cpc}
            for b in instance.businesses
        ],
        "campaigns": [
            {
                "id": c.id,
                "business_id": c.business_id,
                "ctr": c.ctr,
                "levels": [
                    {
                        "level_index": j,
                        "ret": ret,
                        "ad_value": ad_value,
                        "impressions": impressions,
                        "bid": bid,
                    }
                    for j, (ret, ad_value, impressions, bid) in enumerate(
                        zip(c.ret, c.ad_value, c.impressions, c.bid)
                    )
                ],
            }
            for c in instance.campaigns
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


_NUMBER_TYPES = frozenset((int, float))
_BID_TYPES = _NUMBER_TYPES | {type(None)}
_ID_TYPES = frozenset((str, int))


def _check(values: list, what: str, types: frozenset, kind: str = "number") -> set:
    """The types of ``values``, checked in one pass: a JSON bool is no number and no id."""
    seen = set(map(type, values))
    if not seen <= types:
        bad = json.dumps(next(v for v in values if type(v) not in types))
        raise ValueError(f"invalid instance JSON: {what} must be a JSON {kind}, not {bad}")
    return seen


def _numbers(values: list, what: str, types=_NUMBER_TYPES) -> list:
    """``values`` as floats, None kept where ``types`` allows it."""
    seen = _check(values, what, types)
    return [v if v is None else float(v) for v in values] if int in seen else values


def _ids(values: list, what: str) -> list[str]:
    """``values``, JSON strings or integers, as strings."""
    _check(values, what, _ID_TYPES, "string or integer")
    return [*map(str, values)]


def _positions(index: list, expected: list[int]) -> bool:
    """Whether ``level_index`` values name the positions ``expected``."""
    try:
        return bool not in set(map(type, index)) and [*map(float, index)] == expected
    except (TypeError, ValueError, OverflowError):
        return False


def instance_from_json(text: str) -> Instance:
    """The instance a document holds.  Amounts must be JSON numbers; a
    bid may also be null.  Ids must be JSON strings or integers, and read
    as strings.  Each campaign's ``level_index`` values must be
    its levels' positions, 0, 1, ...  A business may list its campaigns
    in ``campaign_ids``; the list must name exactly the campaigns that
    reference it.  These problems raise before the instance is made, and
    the instance then checks itself.  Each field is read for the whole
    document at once: the levels in one flat list, cut per campaign."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a decode error, a number too long to convert, or nesting too deep
        raise ValueError(f"invalid instance JSON: {exc}") from exc
    try:
        cdocs, bdocs = doc["campaigns"], doc["businesses"]
        ids = _ids([c["id"] for c in cdocs], "id")
        owners = _ids([c["business_id"] for c in cdocs], "business_id")
        levels = [c["levels"] for c in cdocs]
        flat = [*chain.from_iterable(levels)]
        cuts = [0, *accumulate(map(len, levels))]

        def curve(values: list, key: str, types=_NUMBER_TYPES) -> list[tuple]:
            values = _numbers(values, key, types)
            return [tuple(values[a:b]) for a, b in zip(cuts, cuts[1:])]

        # level_index is checked for the whole document, and campaign by
        # campaign only to name the ones that fail
        index = [lev["level_index"] for lev in flat]
        read_problems = []
        if not _positions(index, [*chain.from_iterable(map(range, map(len, levels)))]):
            read_problems = [
                f"campaign {cid}: level_index values must be 0..{b - a - 1} consecutive"
                for cid, a, b in zip(ids, cuts, cuts[1:])
                if not _positions(index[a:b], [*range(b - a)])
            ]
        campaigns = [*map(
            Campaign, ids, owners, _numbers([c["ctr"] for c in cdocs], "ctr"),
            *(curve([lev[key] for lev in flat], key) for key in ("ret", "ad_value", "impressions")),
            curve([lev.get("bid") for lev in flat], "bid", _BID_TYPES),
        )]
        businesses = [*map(
            Business, _ids([b["id"] for b in bdocs], "id"),
            _numbers([b["budget"] for b in bdocs], "budget"),
            _numbers([b["cpc"] for b in bdocs], "cpc"),
        )]
        for b, raw in zip(businesses, bdocs):
            listed = raw.get("campaign_ids")
            if listed is not None and sorted(_ids(listed, "campaign_ids")) != sorted(
                cid for cid, owner in zip(ids, owners) if owner == b.id
            ):
                read_problems.append(
                    f"business {b.id}: campaign_ids inconsistent with campaigns referencing it"
                )
        impression_budget = _numbers([doc["impression_budget"]], "impression_budget")[0]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"invalid instance JSON: missing or bad field {exc}") from exc
    if read_problems:
        raise ValueError("invalid instance: " + "; ".join(read_problems))
    return Instance(tuple(businesses), tuple(campaigns), impression_budget)


def read_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


# ---------------------------------------------------------------------------
# MPS

def _num(x: float) -> str:
    return repr(float(x))


def _pad(name: str) -> str:
    return name.ljust(_NAME_W)


def write_mps(model: LpModel) -> str:
    """Fixed-layout MPS text.

    Sections NAME (always BIDOPT)/ROWS/COLUMNS/RHS/BOUNDS/SOS/ENDATA.  Data
    lines are indented four spaces with name fields padded to 20 columns; one
    (row, value) pair per COLUMNS/RHS line.  The objective row is COST;
    a leading comment records that it is maximized.  Stored coefficients
    (including explicit zeros) are written verbatim, column-major, so a
    read reproduces the model exactly.  Every lower bound must be 0, the
    MPS default, or ValueError names the column; a finite upper bound is
    an UP line, an infinite one has none.
    """
    for nm in (*model.column_names, *model.row_names, *model.sos_names):
        if not nm or any(ch.isspace() for ch in nm):
            raise ValueError(f"name {nm!r} is empty or contains whitespace")

    out: list[str] = []
    out.append("* OBJSENSE: MAXIMIZE")
    out.append("NAME          BIDOPT")
    out.append("ROWS")
    out.append(" N  COST")
    for row_name, sense in zip(model.row_names, model.senses):
        out.append(f" {sense}  {row_name}")

    # Column-major: a stable sort by column keeps each column's entries
    # in row order.
    n = len(model.column_names)
    by_col = model.indices.argsort(kind="stable")
    entry_row = np.arange(len(model.row_names)).repeat(np.diff(model.indptr))[by_col].tolist()
    values = model.data[by_col].tolist()
    starts = np.searchsorted(model.indices[by_col], np.arange(n + 1)).tolist()

    out.append("COLUMNS")
    for col_name, obj, lo, hi in zip(
        model.column_names, model.objective.tolist(), starts, starts[1:]
    ):
        if obj != 0.0 or lo == hi:
            out.append(f"    {_pad(col_name)}{_pad('COST')}{_num(obj)}")
        for i, val in zip(entry_row[lo:hi], values[lo:hi]):
            out.append(f"    {_pad(col_name)}{_pad(model.row_names[i])}{_num(val)}")

    out.append("RHS")
    for row_name, rhs in zip(model.row_names, model.rhs.tolist()):
        if rhs != 0.0:
            out.append(f"    {_pad('RHS')}{_pad(row_name)}{_num(rhs)}")

    out.append("BOUNDS")
    for col_name, lo, hi in zip(model.column_names, model.lower.tolist(), model.upper.tolist()):
        if lo != 0.0:
            raise ValueError(f"column {col_name!r} has lower bound {lo!r}; the MPS subset has 0 only")
        if hi != math.inf:
            out.append(f" UP {_pad('BND')}{_pad(col_name)}{_num(hi)}")

    if model.sos_names:
        out.append("SOS")
        starts = model.sos_starts.tolist()
        for name, a, b in zip(model.sos_names, starts, starts[1:]):
            out.append(f" S{model.sos_type} {name}")
            for p, col_name in enumerate(model.column_names[a:b]):
                out.append(f"    {_pad(col_name)}{_num(p)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


class MpsParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"MPS line {line_no}: {message}")
        self.line_no = line_no


def read_mps(text: str) -> LpModel:
    """Parse the subset emitted by write_mps.

    Every lower bound is 0; BOUNDS holds only ``UP <set> <column> <value>``
    lines, and a column without one has no upper bound.  Raises
    MpsParseError with a line number for any other bound kind, a RANGES
    or other unknown section, malformed sections, an objective sense
    other than MAXIMIZE, unknown row or column references, non-finite
    numbers and a set header whose type differs from the first one's,
    and for a set that is no run of columns: each
    member must be the next column, from column 0 on across the sets,
    weighted by its position 0, 1, ... in its set, and each set needs a
    member.  A file without sets reads as SOS1.
    """
    section = None
    # Position-indexed: rows and columns in order of first appearance,
    # each row's (column, value) entries in file order.
    row_index: dict[str, int] = {}
    senses: list[str] = []
    rhs: list[float] = []
    row_cols: list[list[int]] = []
    row_vals: list[list[float]] = []
    col_index: dict[str, int] = {}
    objective: list[float] = []
    upper: list[float] = []
    sos_names: list[str] = []
    sos_starts: list[int] = []
    sos_line = 0  # the last set header's line
    members = 0  # the SOS members read so far: the next member's column
    sos_type = None
    saw_endata = False

    def parse_float(tok: str, ln: int) -> float:
        try:
            value = float(tok)
        except ValueError:
            raise MpsParseError(ln, f"bad numeric value {tok!r}") from None
        if not math.isfinite(value):
            raise MpsParseError(ln, f"numeric value {tok!r} is not finite")
        return value

    for ln, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("*"):
            stripped = raw[1:].strip()
            if stripped.startswith("OBJSENSE:"):
                sense_word = stripped.split(":", 1)[1].strip()
                if sense_word != "MAXIMIZE":
                    raise MpsParseError(
                        ln, f"objective sense {sense_word!r} is not part of the format subset"
                    )
            continue
        if not raw.strip():
            continue
        if raw[0] not in " \t":
            keyword = raw.strip().split()[0]
            if keyword == "NAME":
                continue
            if keyword in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "SOS"):
                section = keyword
                continue
            if keyword == "ENDATA":
                saw_endata = True
                section = None
                continue
            raise MpsParseError(ln, f"unknown section header {keyword!r}")

        tokens = raw.split()
        if section == "ROWS":
            if len(tokens) != 2 or tokens[0] not in ("N", "E", "L", "G"):
                raise MpsParseError(ln, "expected '<sense> <rowname>'")
            sense, rname = tokens
            if sense == "N":
                if rname != "COST":
                    raise MpsParseError(ln, "objective row must be named COST")
                continue
            if sense == "G":
                raise MpsParseError(ln, "G rows are not part of the format subset")
            if rname in row_index:
                raise MpsParseError(ln, f"duplicate row {rname!r}")
            row_index[rname] = len(senses)
            senses.append(sense)
            rhs.append(0.0)
            row_cols.append([])
            row_vals.append([])
        elif section == "COLUMNS":
            if len(tokens) != 3:
                raise MpsParseError(ln, "expected '<column> <row> <value>'")
            cname, rname, vtok = tokens
            val = parse_float(vtok, ln)
            j = col_index.setdefault(cname, len(objective))
            if j == len(objective):  # a new column
                objective.append(0.0)
                upper.append(math.inf)
            if rname == "COST":
                objective[j] = val
            elif rname in row_index:
                row_cols[row_index[rname]].append(j)
                row_vals[row_index[rname]].append(val)
            else:
                raise MpsParseError(ln, f"unknown row {rname!r}")
        elif section == "RHS":
            if len(tokens) != 3:
                raise MpsParseError(ln, "expected 'RHS <row> <value>'")
            _, rname, vtok = tokens
            if rname not in row_index:
                raise MpsParseError(ln, f"unknown row {rname!r}")
            rhs[row_index[rname]] = parse_float(vtok, ln)
        elif section == "BOUNDS":
            if tokens[0] != "UP":
                raise MpsParseError(ln, f"bound kind {tokens[0]!r} is not part of the format subset")
            if len(tokens) != 4:
                raise MpsParseError(ln, "expected 'UP <set> <column> <value>'")
            j = col_index.get(tokens[2])
            if j is None:
                raise MpsParseError(ln, f"unknown column {tokens[2]!r}")
            upper[j] = parse_float(tokens[3], ln)
        elif section == "SOS":
            if tokens[0] in ("S1", "S2"):
                if len(tokens) != 2:
                    raise MpsParseError(ln, "expected 'S1|S2 <setname>'")
                sos_type = sos_type or int(tokens[0][1])
                if tokens[0] != f"S{sos_type}":
                    raise MpsParseError(ln, f"{tokens[0]} set in an S{sos_type} model")
                if sos_starts and sos_starts[-1] == members:
                    raise MpsParseError(sos_line, f"set {sos_names[-1]!r} has no members")
                sos_names.append(tokens[1])
                sos_starts.append(members)
                sos_line = ln
            else:
                if not sos_names:
                    raise MpsParseError(ln, "SOS member before any set header")
                if len(tokens) != 2:
                    raise MpsParseError(ln, "expected '<column> <weight>'")
                cname, wtok = tokens
                if cname not in col_index:
                    raise MpsParseError(ln, f"unknown column {cname!r}")
                if col_index[cname] != members:
                    expected = [*col_index][members] if members < len(col_index) else None
                    raise MpsParseError(ln, f"member {cname!r} is not the next column {expected!r}")
                at = members - sos_starts[-1]  # the member's position in its set
                if parse_float(wtok, ln) != at:
                    raise MpsParseError(ln, f"weight {wtok} of {cname!r} is not its position {at}")
                members += 1
        else:
            raise MpsParseError(ln, "data line outside any section")

    if not saw_endata:
        raise MpsParseError(len(text.splitlines()) + 1, "missing ENDATA")
    if sos_starts and sos_starts[-1] == members:
        raise MpsParseError(sos_line, f"set {sos_names[-1]!r} has no members")

    return LpModel(
        tuple(col_index), np.array(objective, float), np.zeros(len(upper)), np.array(upper, float),
        tuple(row_index), "".join(senses), np.array(rhs, float),
        np.cumsum([0, *map(len, row_cols)], dtype=np.intp),
        np.array([*chain.from_iterable(row_cols)], np.intp),
        np.array([*chain.from_iterable(row_vals)], float),
        sos_names=tuple(sos_names),
        sos_starts=np.array([*sos_starts, members], np.intp),
        sos_type=sos_type or 1,
    )


def models_structurally_equal(a: LpModel, b: LpModel) -> bool:
    """Equality on names, senses, every array, the set names, starts and
    type; level bids (absent from MPS) are ignored."""
    return (
        _model_difference(a, b) is None
        and (a.sos_names, a.sos_type) == (b.sos_names, b.sos_type)
        and np.array_equal(a.sos_starts, b.sos_starts)
    )


def _model_difference(a: LpModel, b: LpModel, round_off: float = 0.0) -> str | None:
    """The first difference of ``b`` from ``a``, or None.  Names, senses,
    bounds, right-hand sides and the sparsity must be equal; the objective
    and the coefficients may differ by ``round_off`` times the largest
    |value| of the objective, or of their row.  Sets are not compared."""
    col, row = a.column_names, a.row_names
    for kind, ours, theirs in (("column", col, b.column_names), ("row", row, b.row_names)):
        for k, (x, y) in enumerate(zip_longest(ours, theirs)):
            if x != y:
                return f"{kind} {k} {x!r} against {y!r}"
    entry_row = np.arange(len(row)).repeat(np.diff(a.indptr))
    row_max = np.zeros(len(row))
    np.maximum.at(row_max, entry_row, np.abs(a.data))
    names = np.array(col)
    at_row, at_col = (lambda k: f"row {row[k]}"), (lambda k: f"column {col[k]}")
    at_entry = lambda k: f"row {row[entry_row[k]]} entry {k - a.indptr[entry_row[k]]}"
    for where, what, ours, theirs, scale in (
        (at_row, "sense", np.array([*a.senses]), np.array([*b.senses]), None),
        (at_row, "right-hand side", a.rhs, b.rhs, None),
        (at_col, "lower bound", a.lower, b.lower, None),
        (at_col, "upper bound", a.upper, b.upper, None),
        (at_row, "entry count", np.diff(a.indptr), np.diff(b.indptr), None),
        (at_entry, "column", names[a.indices], names[b.indices], None),
        (at_col, "objective", a.objective, b.objective, np.abs(a.objective).max(initial=0.0)),
        (at_entry, "coefficient", a.data, b.data, row_max[entry_row]),
    ):
        bad = ours != theirs
        if scale is not None:
            bad &= ~(np.abs(ours - theirs) <= round_off * scale)
        if bad.any():
            k = int(bad.argmax())
            return f"{where(k)} {what} {ours[k].item()!r} against {theirs[k].item()!r}"
    return None


# ---------------------------------------------------------------------------
# model -> instance inversion (for MPS -> JSON conversion)

def _campaign_id(set_name: str) -> str:
    """The campaign of a set: its name less ``build_model``'s "S_" prefix."""
    return set_name[2:] if set_name.startswith("S_") else set_name


def model_to_instance(model: LpModel) -> Instance:
    """Rebuild an Instance whose build_model output reproduces this
    model, with coefficients equal up to float round-off.

    The click row pins only the product cpc*ctr, so the split is
    canonical: each business takes cpc = max over its campaigns of that
    product, and ctr scales accordingly (the top campaign gets ctr 1).
    Recovered ad_value is spend/impressions, so rebuilt budget and
    click coefficients can differ from the originals in the last few
    bits.  Level bids are not stored in MPS and come back as None.
    Raises ValueError when the rebuilt instance is not valid, or when
    ``build_model`` of it is not this model up to 1e-12 round-off.
    """
    row_at = {name: i for i, name in enumerate(model.row_names)}
    if "IMP" not in row_at:
        raise ValueError("model has no IMP row")
    business_ids = [name[4:] for name in model.row_names if name.startswith("BUD_")]
    n = len(model.column_names)
    impressions, spend, click = np.zeros(n), np.zeros(n), np.zeros(n)
    owner = np.full(n, -1)  # the business whose BUD row holds the column

    def put(out: np.ndarray, name: str) -> np.ndarray:
        """Row ``name``'s entries written into ``out`` by column; their columns."""
        a, b = model.indptr[row_at[name]:row_at[name] + 2]
        out[model.indices[a:b]] = model.data[a:b]
        return model.indices[a:b]

    put(impressions, "IMP")
    for k, bid_ in enumerate(business_ids):
        if f"CLK_{bid_}" not in row_at:
            raise ValueError(f"business {bid_}: BUD row without CLK row")
        owner[put(spend, f"BUD_{bid_}")] = k
        put(click, f"CLK_{bid_}")
    imps, spend, click = impressions.tolist(), spend.tolist(), click.tolist()

    # A set is a campaign.  Its cpc*ctr comes from spend - click = P * cpc
    # * ctr at its first level with impressions.
    starts = model.sos_starts.tolist()
    runs = [*zip(map(_campaign_id, model.sos_names), starts, starts[1:])]
    camp_business, product = [], []
    for cid, a, b in runs:
        owners = set(owner[a:b].tolist()) - {-1}
        if not owners:
            raise ValueError(f"campaign {cid}: no member has a budget-row (BUD_) entry")
        if len(owners) != 1:
            raise ValueError(
                f"campaign {cid}: members span businesses {[business_ids[k] for k in owners]}"
            )
        camp_business.append(business_ids[owners.pop()])
        j = next((j for j in range(a, b) if imps[j] > 0.0), None)
        product.append(0.0 if j is None else (spend[j] - click[j]) / imps[j])

    cpc_of = {
        bid_: max((q for q, of in zip(product, camp_business) if of == bid_), default=0.0)
        for bid_ in business_ids
    }
    rhs, objective = model.rhs.tolist(), model.objective.tolist()
    instance = Instance(
        tuple(Business(bid_, rhs[row_at[f"BUD_{bid_}"]], cpc_of[bid_]) for bid_ in business_ids),
        tuple(
            Campaign(
                cid, bid_, q / cpc_of[bid_] if cpc_of[bid_] > 0.0 else 0.0,
                ret=tuple(objective[a:b]),
                ad_value=tuple(s / p if p > 0.0 else 0.0 for s, p in zip(spend[a:b], imps[a:b])),
                impressions=tuple(imps[a:b]),
                bid=(None,) * (b - a),
            )
            for (cid, a, b), bid_, q in zip(runs, camp_business, product)
        ),
        rhs[row_at["IMP"]],
    )
    difference = _model_difference(model, build_model(instance), 1e-12)
    if difference:
        raise ValueError(f"no instance gives this model (file against rebuilt): {difference}")
    return instance


# ---------------------------------------------------------------------------
# solution files

def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.12f}"


def write_solution(
    report: SolveReport,
    solution,
    model: LpModel,
    omit_timing: bool = False,
) -> str:
    """Headers, one COLUMN line per nonzero value, one BID line per
    campaign whose interpolated bid is defined."""
    lines = [
        f"STATUS {report.status}",
        f"OBJECTIVE {_fmt(report.incumbent_objective)}",
        f"LP_BOUND {_fmt(report.lp_relaxation_objective)}",
        f"DEGRADATION_PCT {_fmt(report.degradation_pct)}",
        f"STRATEGY {report.strategy}",
        f"SOS_TYPE {model.sos_type}",
        f"SECONDS {'-' if omit_timing else _fmt(report.total_seconds)}",
        f"NODES {report.nodes}",
    ]
    if solution is not None:
        for name, v in zip(model.column_names, solution.tolist()):
            if abs(v) >= 5e-13:
                lines.append(f"COLUMN {name} {v:.12f}")
        for name, bid in zip(model.sos_names, interpolate_bids(model, solution)):
            if bid is not None:
                lines.append(f"BID {_campaign_id(name)} {bid:.12f}")
    return "\n".join(lines) + "\n"


def read_solution(text: str) -> dict:
    """Inverse of write_solution: header fields plus 'columns' and
    'bids' mappings.  '-' placeholders come back as None."""
    header_keys = {
        "STATUS": str,
        "STRATEGY": str,
        "SOS_TYPE": int,
        "NODES": int,
        "OBJECTIVE": float,
        "LP_BOUND": float,
        "DEGRADATION_PCT": float,
        "SECONDS": float,
    }
    out: dict = {"columns": {}, "bids": {}}
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        tokens = raw.split()
        key = tokens[0]
        if key == "COLUMN":
            if len(tokens) != 3:
                raise ValueError(f"solution line {ln}: expected 'COLUMN <name> <value>'")
            out["columns"][tokens[1]] = float(tokens[2])
        elif key == "BID":
            if len(tokens) != 3:
                raise ValueError(f"solution line {ln}: expected 'BID <campaign> <value>'")
            out["bids"][tokens[1]] = float(tokens[2])
        elif key in header_keys:
            if len(tokens) != 2:
                raise ValueError(f"solution line {ln}: expected '{key} <value>'")
            val = tokens[1]
            out[key.lower()] = None if val == "-" else header_keys[key](val)
        else:
            raise ValueError(f"solution line {ln}: unknown record {key!r}")
    return out


def verify_solution(
    instance: Instance, columns: dict[str, float], sos_type: int = 1
) -> list[str]:
    """Independent feasibility check from raw instance data.

    Row activities are recomputed here (not via build_model) and each
    row is allowed ``VERIFY_TOL * max(1, |rhs|, sum |term|)`` of slack;
    the SOS condition is checked exactly against ``VERIFY_ZERO_TOL``.
    Returns violation messages, empty when the solution verifies.
    """
    expected = {
        f"D_{c.id}_{j}": (c.id, j) for c in instance.campaigns for j in range(len(c.ret))
    }
    problems = [
        f"unknown column {name!r}" for name in columns if name not in expected
    ]

    value = {key: columns.get(name, 0.0) for name, key in expected.items()}
    for (cid, j), v in value.items():
        if not -VERIFY_TOL <= v <= 1.0 + VERIFY_TOL:  # NaN is out of range too
            problems.append(f"column D_{cid}_{j}: value {v} outside [0, 1]")

    def check_le(name: str, terms: list[float], rhs: float) -> None:
        activity = math.fsum(terms)
        scale = max(1.0, abs(rhs), math.fsum(abs(t) for t in terms))
        if activity > rhs + VERIFY_TOL * scale:
            problems.append(
                f"row {name}: activity {activity} exceeds {rhs} beyond tolerance"
            )

    for c in instance.campaigns:
        terms = [value[(c.id, j)] for j in range(len(c.ret))]
        total = math.fsum(terms)
        scale = max(1.0, math.fsum(abs(t) for t in terms))
        if abs(total - 1.0) > VERIFY_TOL * scale:
            problems.append(f"row CVX_{c.id}: member sum {total} is not 1")

    camps_of: dict[str, list[Campaign]] = {b.id: [] for b in instance.businesses}
    for c in instance.campaigns:
        camps_of[c.business_id].append(c)
    for b in instance.businesses:
        spend_terms = []
        click_terms = []
        for c in camps_of[b.id]:
            for j, (ad_value, impressions) in enumerate(zip(c.ad_value, c.impressions)):
                v = value[(c.id, j)]
                spend_terms.append(impressions * ad_value * v)
                click_terms.append(impressions * (ad_value - b.cpc * c.ctr) * v)
        check_le(f"BUD_{b.id}", spend_terms, b.budget)
        check_le(f"CLK_{b.id}", click_terms, 0.0)

    imp_terms = [
        impressions * value[(c.id, j)]
        for c in instance.campaigns
        for j, impressions in enumerate(c.impressions)
    ]
    check_le("IMP", imp_terms, instance.impression_budget)

    for c in instance.campaigns:
        nz = [j for j in range(len(c.ret)) if value[(c.id, j)] > VERIFY_ZERO_TOL]
        if sos_type == 1:
            if len(nz) > 1:
                problems.append(f"set S_{c.id}: {len(nz)} nonzero members (SOS1)")
        else:
            if len(nz) > 2 or (len(nz) == 2 and nz[1] - nz[0] != 1):
                problems.append(
                    f"set S_{c.id}: nonzero members {nz} are not an adjacent pair (SOS2)"
                )
    return problems

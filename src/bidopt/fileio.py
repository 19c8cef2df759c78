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
from dataclasses import replace

from .model import (
    BidLevelData,
    Business,
    Campaign,
    Instance,
    LpColumn,
    LpModel,
    LpRow,
    SosSet,
    validate_instance,
)
from .search import SolveReport, interpolate_bid

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
                        "level_index": lev.level_index,
                        "ret": lev.ret,
                        "ad_value": lev.ad_value,
                        "impressions": lev.impressions,
                        "bid": lev.bid,
                    }
                    for lev in c.levels
                ],
            }
            for c in instance.campaigns
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid instance JSON: {exc}") from exc
    try:
        campaigns = tuple(
            Campaign(
                id=str(c["id"]),
                business_id=str(c["business_id"]),
                ctr=float(c["ctr"]),
                levels=tuple(
                    BidLevelData(
                        level_index=int(lev["level_index"]),
                        ret=float(lev["ret"]),
                        ad_value=float(lev["ad_value"]),
                        impressions=float(lev["impressions"]),
                        bid=None if lev.get("bid") is None else float(lev["bid"]),
                    )
                    for lev in c["levels"]
                ),
            )
            for c in doc["campaigns"]
        )
        businesses = tuple(
            Business(
                id=str(b["id"]),
                budget=float(b["budget"]),
                cpc=float(b["cpc"]),
                campaign_ids=tuple(
                    b["campaign_ids"]
                    if "campaign_ids" in b
                    else (c.id for c in campaigns if c.business_id == b["id"])
                ),
            )
            for b in doc["businesses"]
        )
        instance = Instance(
            businesses=businesses,
            campaigns=campaigns,
            impression_budget=float(doc["impression_budget"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid instance JSON: missing or bad field {exc}") from exc
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return instance


def read_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def write_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


# ---------------------------------------------------------------------------
# MPS

def _num(x: float) -> str:
    return repr(float(x))


def _pad(name: str) -> str:
    return name.ljust(_NAME_W)


def write_mps(model: LpModel, name: str = "BIDOPT") -> str:
    """Fixed-layout MPS text.

    Sections NAME/ROWS/COLUMNS/RHS/BOUNDS/SOS/ENDATA.  Data lines are
    indented four spaces with name fields padded to 20 columns; one
    (row, value) pair per COLUMNS/RHS line.  The objective row is COST;
    the sense is recorded in a leading comment.  Stored coefficients
    (including explicit zeros) are written verbatim, column-major, so a
    read reproduces the model exactly.
    """
    for nm in (
        [name]
        + [c.name for c in model.columns]
        + [r.name for r in model.rows]
        + [s.name for s in model.sos_sets]
    ):
        if not nm or any(ch.isspace() for ch in nm):
            raise ValueError(f"name {nm!r} is empty or contains whitespace")

    out: list[str] = []
    out.append(f"* OBJSENSE: {'MAXIMIZE' if model.maximize else 'MINIMIZE'}")
    out.append(f"NAME          {name}")
    out.append("ROWS")
    out.append(" N  COST")
    for row in model.rows:
        out.append(f" {row.sense}  {row.name}")

    per_col: list[list[tuple[str, float]]] = [[] for _ in model.columns]
    for row in model.rows:
        for j, val in row.coeffs:
            per_col[j].append((row.name, val))

    out.append("COLUMNS")
    for col, entries in zip(model.columns, per_col):
        if col.objective != 0.0 or not entries:
            out.append(f"    {_pad(col.name)}{_pad('COST')}{_num(col.objective)}")
        for row_name, val in entries:
            out.append(f"    {_pad(col.name)}{_pad(row_name)}{_num(val)}")

    out.append("RHS")
    for row in model.rows:
        if row.rhs != 0.0:
            out.append(f"    {_pad('RHS')}{_pad(row.name)}{_num(row.rhs)}")

    out.append("BOUNDS")
    for col in model.columns:
        lo, hi = col.lower, col.upper
        if lo == hi:
            out.append(f" FX {_pad('BND')}{_pad(col.name)}{_num(lo)}")
            continue
        if lo == -math.inf and hi == math.inf:
            out.append(f" FR {_pad('BND')}{_pad(col.name)}")
            continue
        if lo == -math.inf:
            out.append(f" MI {_pad('BND')}{_pad(col.name)}")
        elif lo != 0.0:
            out.append(f" LO {_pad('BND')}{_pad(col.name)}{_num(lo)}")
        if hi != math.inf:
            out.append(f" UP {_pad('BND')}{_pad(col.name)}{_num(hi)}")

    if model.sos_sets:
        out.append("SOS")
        for sos in model.sos_sets:
            out.append(f" S{sos.sos_type} {sos.name}")
            for j, w in zip(sos.members, sos.weights):
                out.append(f"    {_pad(model.columns[j].name)}{_num(w)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


class MpsParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"MPS line {line_no}: {message}")
        self.line_no = line_no


def read_mps(text: str) -> LpModel:
    """Parse the subset emitted by write_mps.

    Raises MpsParseError with a line number for malformed sections,
    unknown row or column references, non-finite numbers and
    non-increasing SOS weights.
    """
    maximize = True
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    col_obj: dict[str, float] = {}
    col_bounds: dict[str, list[float]] = {}
    row_coeffs: dict[str, list[tuple[int, float]]] = {}
    rhs: dict[str, float] = {}
    sos_raw: list[dict] = []
    saw_endata = False

    col_index: dict[str, int] = {}

    def col_id(name: str) -> int:
        idx = col_index.get(name)
        if idx is None:
            idx = len(col_order)
            col_index[name] = idx
            col_order.append(name)
            col_obj[name] = 0.0
            col_bounds[name] = [0.0, math.inf]
        return idx

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
                if sense_word not in ("MAXIMIZE", "MINIMIZE"):
                    raise MpsParseError(ln, f"unknown objective sense {sense_word!r}")
                maximize = sense_word == "MAXIMIZE"
            continue
        if not raw.strip():
            continue
        if raw[0] not in " \t":
            keyword = raw.strip().split()[0]
            if keyword == "NAME":
                continue
            if keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "SOS"):
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
            if rname in row_sense:
                raise MpsParseError(ln, f"duplicate row {rname!r}")
            row_sense[rname] = sense
            row_order.append(rname)
            row_coeffs[rname] = []
        elif section == "COLUMNS":
            if len(tokens) != 3:
                raise MpsParseError(ln, "expected '<column> <row> <value>'")
            cname, rname, vtok = tokens
            val = parse_float(vtok, ln)
            j = col_id(cname)
            if rname == "COST":
                col_obj[cname] = val
            elif rname in row_coeffs:
                row_coeffs[rname].append((j, val))
            else:
                raise MpsParseError(ln, f"unknown row {rname!r}")
        elif section == "RHS":
            if len(tokens) != 3:
                raise MpsParseError(ln, "expected 'RHS <row> <value>'")
            _, rname, vtok = tokens
            if rname not in row_sense:
                raise MpsParseError(ln, f"unknown row {rname!r}")
            rhs[rname] = parse_float(vtok, ln)
        elif section == "RANGES":
            raise MpsParseError(ln, "RANGES entries are not part of the format subset")
        elif section == "BOUNDS":
            kind = tokens[0]
            if kind in ("FR", "MI", "PL"):
                if len(tokens) != 3:
                    raise MpsParseError(ln, f"expected '{kind} <set> <column>'")
                cname = tokens[2]
                vtok = None
            else:
                if len(tokens) != 4 or kind not in ("UP", "LO", "FX"):
                    raise MpsParseError(ln, "expected '<UP|LO|FX|FR|MI|PL> <set> <column> [value]'")
                cname = tokens[2]
                vtok = tokens[3]
            if cname not in col_index:
                raise MpsParseError(ln, f"unknown column {cname!r}")
            b = col_bounds[cname]
            if kind == "FR":
                b[0], b[1] = -math.inf, math.inf
            elif kind == "MI":
                b[0] = -math.inf
            elif kind == "PL":
                b[1] = math.inf
            elif kind == "LO":
                b[0] = parse_float(vtok, ln)
            elif kind == "UP":
                b[1] = parse_float(vtok, ln)
            else:  # FX
                v = parse_float(vtok, ln)
                b[0] = b[1] = v
        elif section == "SOS":
            if tokens[0] in ("S1", "S2"):
                if len(tokens) != 2:
                    raise MpsParseError(ln, "expected 'S1|S2 <setname>'")
                sos_raw.append(
                    {"name": tokens[1], "type": int(tokens[0][1]),
                     "members": [], "weights": [], "line": ln}
                )
            else:
                if not sos_raw:
                    raise MpsParseError(ln, "SOS member before any set header")
                if len(tokens) != 2:
                    raise MpsParseError(ln, "expected '<column> <weight>'")
                cname, wtok = tokens
                if cname not in col_index:
                    raise MpsParseError(ln, f"unknown column {cname!r}")
                w = parse_float(wtok, ln)
                cur = sos_raw[-1]
                if cur["weights"] and w <= cur["weights"][-1]:
                    raise MpsParseError(
                        ln, "reference weights must be strictly increasing"
                    )
                cur["members"].append(col_index[cname])
                cur["weights"].append(w)
        elif section is None:
            raise MpsParseError(ln, "data line outside any section")
        else:
            raise MpsParseError(ln, f"unhandled section {section!r}")

    if not saw_endata:
        raise MpsParseError(len(text.splitlines()) + 1, "missing ENDATA")

    columns = tuple(
        LpColumn(
            name=nm,
            objective=col_obj[nm],
            lower=col_bounds[nm][0],
            upper=col_bounds[nm][1],
        )
        for nm in col_order
    )
    rows = tuple(
        LpRow(
            name=nm,
            sense=row_sense[nm],
            rhs=rhs.get(nm, 0.0),
            coeffs=tuple(row_coeffs[nm]),
        )
        for nm in row_order
    )
    sos_sets = tuple(
        SosSet(
            name=s["name"],
            sos_type=s["type"],
            members=tuple(s["members"]),
            weights=tuple(s["weights"]),
            bids=None,
        )
        for s in sos_raw
    )
    return LpModel(columns=columns, rows=rows, sos_sets=sos_sets, maximize=maximize)


def models_structurally_equal(a: LpModel, b: LpModel) -> bool:
    """Equality on columns, rows, sense, and SOS structure; level-bid
    metadata (absent from MPS) is ignored."""
    strip = lambda m: replace(
        m, sos_sets=tuple(replace(s, bids=None) for s in m.sos_sets)
    )
    return strip(a) == strip(b)


# ---------------------------------------------------------------------------
# model -> instance inversion (for MPS -> JSON conversion)

def model_to_instance(model: LpModel) -> Instance:
    """Rebuild an Instance whose build_model output reproduces this
    model, with coefficients equal up to float round-off.

    The click row pins only the product cpc*ctr, so the split is
    canonical: each business takes cpc = max over its campaigns of that
    product, and ctr scales accordingly (the top campaign gets ctr 1).
    Recovered ad_value is spend/impressions, so rebuilt budget and
    click coefficients can differ from the originals in the last few
    bits.  Level bids are not stored in MPS and come back as None.
    """
    rows_by_name = {r.name: r for r in model.rows}
    campaigns_meta: list[dict] = []
    for sos in model.sos_sets:
        cid = sos.name[2:] if sos.name.startswith("S_") else sos.name
        cvx = rows_by_name.get(f"CVX_{cid}")
        if cvx is None or tuple(j for j, _ in cvx.coeffs) != sos.members:
            raise ValueError(f"set {sos.name}: no matching convexity row CVX_{cid}")
        campaigns_meta.append({"cid": cid, "members": sos.members, "weights": sos.weights})

    imp = rows_by_name.get("IMP")
    if imp is None:
        raise ValueError("model has no IMP row")
    impressions = {j: v for j, v in imp.coeffs}

    business_ids = [
        r.name[4:] for r in model.rows if r.name.startswith("BUD_")
    ]
    member_business: dict[int, str] = {}
    spend: dict[int, float] = {}
    click: dict[int, float] = {}
    for bid_ in business_ids:
        bud = rows_by_name[f"BUD_{bid_}"]
        clk = rows_by_name.get(f"CLK_{bid_}")
        if clk is None:
            raise ValueError(f"business {bid_}: BUD row without CLK row")
        for j, v in bud.coeffs:
            member_business[j] = bid_
            spend[j] = v
        for j, v in clk.coeffs:
            click[j] = v

    # cpc*ctr per campaign from spend - click = P * cpc * ctr
    product: dict[str, float] = {}
    camp_business: dict[str, str] = {}
    for meta in campaigns_meta:
        cid = meta["cid"]
        owners = {member_business.get(j) for j in meta["members"]}
        owners.discard(None)
        if len(owners) != 1:
            raise ValueError(f"campaign {cid}: members span businesses {owners}")
        camp_business[cid] = owners.pop()
        q = 0.0
        for j in meta["members"]:
            p = impressions.get(j, 0.0)
            if p > 0.0:
                q = (spend.get(j, 0.0) - click.get(j, 0.0)) / p
                break
        product[cid] = q

    businesses = []
    for bid_ in business_ids:
        qs = [product[c] for c in product if camp_business[c] == bid_]
        cpc = max(qs) if qs else 0.0
        businesses.append(
            Business(
                id=bid_,
                budget=rows_by_name[f"BUD_{bid_}"].rhs,
                cpc=cpc,
                campaign_ids=tuple(
                    m["cid"] for m in campaigns_meta if camp_business[m["cid"]] == bid_
                ),
            )
        )
    cpc_of = {b.id: b.cpc for b in businesses}

    campaigns = []
    for meta in campaigns_meta:
        cid = meta["cid"]
        cpc = cpc_of[camp_business[cid]]
        ctr = product[cid] / cpc if cpc > 0.0 else 0.0
        levels = []
        for pos, j in enumerate(meta["members"]):
            p = impressions.get(j, 0.0)
            av = spend.get(j, 0.0) / p if p > 0.0 else 0.0
            levels.append(
                BidLevelData(
                    level_index=int(meta["weights"][pos]),
                    ret=model.columns[j].objective,
                    ad_value=av,
                    impressions=p,
                )
            )
        campaigns.append(
            Campaign(id=cid, business_id=camp_business[cid], ctr=ctr,
                     levels=tuple(levels))
        )

    return Instance(
        businesses=tuple(businesses),
        campaigns=tuple(campaigns),
        impression_budget=imp.rhs,
    )


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
    zero_tol: float = VERIFY_ZERO_TOL,
) -> str:
    """Headers, one COLUMN line per nonzero value, one BID line per
    campaign whose interpolated bid is defined."""
    lines = [
        f"STATUS {report.status}",
        f"OBJECTIVE {_fmt(report.incumbent_objective)}",
        f"LP_BOUND {_fmt(report.lp_relaxation_objective)}",
        f"DEGRADATION_PCT {_fmt(report.degradation_pct)}",
        f"STRATEGY {report.strategy}",
        f"SOS_TYPE {report.sos_type_used}",
        f"SECONDS {'-' if omit_timing else _fmt(report.total_seconds)}",
        f"NODES {report.nodes}",
    ]
    if solution is not None:
        for col, v in zip(model.columns, solution):
            if abs(v) >= 5e-13:
                lines.append(f"COLUMN {col.name} {v:.12f}")
        for sos in model.sos_sets:
            bid = interpolate_bid(sos, solution, zero_tol)
            if bid is not None:
                cid = sos.name[2:] if sos.name.startswith("S_") else sos.name
                lines.append(f"BID {cid} {bid:.12f}")
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
    instance: Instance,
    columns: dict[str, float],
    sos_type: int = 1,
    tol: float = VERIFY_TOL,
    zero_tol: float = VERIFY_ZERO_TOL,
) -> list[str]:
    """Independent feasibility check from raw instance data.

    Row activities are recomputed here (not via build_model) and each
    row is allowed tol * max(1, |rhs|, sum |term|) of slack; the SOS
    condition is checked exactly against zero_tol.  Returns violation
    messages, empty when the solution verifies.
    """
    expected: dict[str, tuple[str, int]] = {}
    for c in instance.campaigns:
        for lev in c.levels:
            expected[f"D_{c.id}_{lev.level_index}"] = (c.id, lev.level_index)
    problems = [
        f"unknown column {name!r}" for name in columns if name not in expected
    ]

    value = {
        (c.id, lev.level_index): columns.get(f"D_{c.id}_{lev.level_index}", 0.0)
        for c in instance.campaigns
        for lev in c.levels
    }
    for (cid, j), v in value.items():
        if v < -tol or v > 1.0 + tol:
            problems.append(f"column D_{cid}_{j}: value {v} outside [0, 1]")

    def check_le(name: str, terms: list[float], rhs: float) -> None:
        activity = math.fsum(terms)
        scale = max(1.0, abs(rhs), math.fsum(abs(t) for t in terms))
        if activity > rhs + tol * scale:
            problems.append(
                f"row {name}: activity {activity} exceeds {rhs} beyond tolerance"
            )

    for c in instance.campaigns:
        terms = [value[(c.id, lev.level_index)] for lev in c.levels]
        total = math.fsum(terms)
        scale = max(1.0, math.fsum(abs(t) for t in terms))
        if abs(total - 1.0) > tol * scale:
            problems.append(f"row CVX_{c.id}: member sum {total} is not 1")

    camps_of: dict[str, list[Campaign]] = {b.id: [] for b in instance.businesses}
    for c in instance.campaigns:
        camps_of[c.business_id].append(c)
    for b in instance.businesses:
        spend_terms = []
        click_terms = []
        for c in camps_of[b.id]:
            for lev in c.levels:
                v = value[(c.id, lev.level_index)]
                spend_terms.append(lev.impressions * lev.ad_value * v)
                click_terms.append(
                    lev.impressions * (lev.ad_value - b.cpc * c.ctr) * v
                )
        check_le(f"BUD_{b.id}", spend_terms, b.budget)
        check_le(f"CLK_{b.id}", click_terms, 0.0)

    imp_terms = [
        lev.impressions * value[(c.id, lev.level_index)]
        for c in instance.campaigns
        for lev in c.levels
    ]
    check_le("IMP", imp_terms, instance.impression_budget)

    for c in instance.campaigns:
        nz = [lev.level_index for lev in c.levels
              if value[(c.id, lev.level_index)] > zero_tol]
        if sos_type == 1:
            if len(nz) > 1:
                problems.append(f"set S_{c.id}: {len(nz)} nonzero members (SOS1)")
        else:
            if len(nz) > 2 or (len(nz) == 2 and nz[1] - nz[0] != 1):
                problems.append(
                    f"set S_{c.id}: nonzero members {nz} are not an adjacent pair (SOS2)"
                )
    return problems

"""Expectations for scottlab responses, computed without scottlab.

check() returns None for a correct response and a one-line reason
otherwise.  Every response must exit 0 with empty stderr, and every
--format json response must parse.  Verbs with a closed-form answer
are checked against it: table8 and the pipeline matrix against the
golden file, adjunction and boundary verdicts against Table 8, paths
and ep against the projection maps, limit, stage, funcs, mu,
normalize, iso, compare, the shape of funcspace tables and the column
count of diagrams.  The other verbs (cpo, neighbors, fpt, decompose,
replicate, funcspace --word and the string and lcr subverbs) are
checked only for exit code, stderr and JSON syntax.
"""

from __future__ import annotations

import json
import re

LIMIT_TYPES = {"standard": "ω+1+ω*", "alternative": "ω+1"}
BOUNDARY_LABELS = {"lambda_hat_prime": "m", "v": "m'"}
RELATIONS = {-1: "<", 0: "=", 1: ">"}
MONOTONE_BITS = re.compile(r"0*1*")


def options(argv: list[str]) -> dict[str, object]:
    """--name value pairs of an argv list; bare flags map to True."""
    out: dict[str, object] = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--") and "=" in tok:
            name, value = tok[2:].split("=", 1)
            out[name] = value
        elif tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else "--"
            out[tok[2:]] = True if nxt.startswith("--") else nxt
    return out


def normal_form(word: str) -> str:
    """Normal form by the rewrite rules k+j -> (k+j), k+w -> w, w*+k -> w*."""
    atoms = [a.strip().replace("ω", "w") for a in word.split("+")]
    i = 0
    while i < len(atoms) - 1:
        a, b = atoms[i], atoms[i + 1]
        if a.isdigit() and b.isdigit():
            atoms[i:i + 2] = [str(int(a) + int(b))]
        elif a.isdigit() and b == "w":
            atoms[i:i + 2] = ["w"]
        elif a == "w*" and b.isdigit():
            atoms[i:i + 2] = ["w*"]
        else:
            i += 1
            continue
        i = max(i - 1, 0)
    return "+".join({"w": "ω", "w*": "ω*"}.get(a, a) for a in atoms)


def label_rank(cpo: str, label: str) -> tuple[int, int]:
    """Position of a label in phi, theta, lambda_prime or v."""
    if cpo == "v":
        fixed = {"-inf": (0, 0), "m'": (2, 0), "+inf": (4, 0)}
        if label in fixed:
            return fixed[label]
        return (1, -int(label[1:])) if label.startswith("-") else (3, int(label[1:]))
    fixed = {"inf": (1, 0), "inf'": (2, 0)}
    if label in fixed:
        return fixed[label]
    return (3, -int(label[:-1])) if label.endswith("'") else (0, int(label))


def project(scheme: str, n: int, k: int) -> int:
    """Projection of label k at stage n+1 down to stage n."""
    if scheme == "standard":
        return k if k <= (n - 1) // 2 else k - 1
    return min(k, n - 1)


def embed(scheme: str, n: int, k: int) -> int:
    """Embedding of label k at stage n into stage n+1: the least label that p sends to k."""
    return next(j for j in range(n + 1) if project(scheme, n, j) == k)


def monotone_words(m: int) -> list[str]:
    """The monotone maps from an m-chain into 2, as sorted bit words 0^(m-k)1^k."""
    return ["0" * (m - k) + "1" * k for k in range(m + 1)]


def paths_error(scheme: str, depth: int, paths: list[list[int]]) -> str | None:
    if len(paths) != depth:
        return f"{len(paths)} paths, expected {depth}"
    if len({tuple(p) for p in paths}) != depth:
        return "duplicate paths"
    for e in paths:
        if len(e) != depth or e[0] != 0:
            return f"path {e[:5]}... has the wrong length or start"
        for n in range(1, depth):
            if not 0 <= e[n] <= n or project(scheme, n, e[n]) != e[n - 1]:
                return f"path inconsistent under p at stage {n + 1}"
    return None


class Checker:
    def __init__(self, golden_table8: str):
        self.table8_text = golden_table8.rstrip("\n")
        self.table8_rows = [re.split(r"\s{2,}", line.strip())
                            for line in self.table8_text.split("\n")[1:]]

    def _rows_error(self, rows) -> str | None:
        got = [[r["cpo"], r["adjunction"], r["fixed_point"], r["boundary"], r["order_type"]]
               for r in rows]
        return None if got == self.table8_rows else "table8 rows differ from the golden file"

    def __call__(self, argv: list[str], rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if err:
            return f"stderr: {err.strip()[:120]}"
        if not out.strip():
            return "empty output"
        opt = options(argv)
        obj = None
        if opt.get("format") == "json":
            try:
                obj = json.loads(out)
            except json.JSONDecodeError as e:
                return f"invalid JSON: {e}"
        check = getattr(self, "_" + argv[0], None)
        try:
            return check(opt, out.rstrip("\n"), obj) if check else None
        except (KeyError, IndexError, ValueError, TypeError, StopIteration) as e:
            return f"malformed response: {type(e).__name__} {e}"

    def _table8(self, opt, text, obj):
        if obj is None:
            return None if text == self.table8_text else "table8 differs from the golden file"
        if obj["window"] != int(opt["window"]):
            return "wrong window"
        return self._rows_error(obj["rows"])

    def _pipeline(self, opt, text, obj):
        if obj is None:
            matrix = text.split("\n\n", 1)[-1]
            return None if matrix == self.table8_text else "pipeline matrix differs from the golden file"
        return self._rows_error(obj["table8"])

    def _adjunction(self, opt, text, obj):
        cpo, window = opt["cpo"], int(opt["window"])
        expected = cpo != "lambda"
        if obj is None:
            lines = text.split("\n")
            if not (lines[0].startswith(f"{cpo}: ") and lines[0].endswith(f"window {window}")):
                return "wrong order or window"
            return None if lines[-1] == "adjunction: " + ("yes" if expected else "no") else "wrong verdict"
        if (obj["cpo"], obj["window"]) != (cpo, window):
            return "wrong order or window"
        return None if obj["passed"] is expected else "wrong verdict"

    def _boundary(self, opt, text, obj):
        cpo = opt["cpo"]
        label = BOUNDARY_LABELS[cpo]
        if obj is None:
            ok = text.startswith(f"{cpo}: boundary {label} = ")
        else:
            ok = obj["label"] == label and obj["cpo"] == cpo
        return None if ok else f"boundary label is not {label}"

    def _paths(self, opt, text, obj):
        scheme, depth = opt.get("scheme", "standard"), int(opt["depth"])
        if obj is None:
            paths = [[int(k) for k in line.split(" <-> ")[0].split(",")] for line in text.split("\n")]
        else:
            paths = [p["entries"] for p in obj["paths"]]
        return paths_error(scheme, depth, paths)

    def _limit(self, opt, text, obj):
        scheme = opt.get("scheme", "standard")
        got = text if obj is None else f"{obj['scheme']}: {obj['order_type']}"
        return None if got == f"{scheme}: {LIMIT_TYPES[scheme]}" else f"wrong limit {got!r}"

    def _stage(self, opt, text, obj):
        n = int(opt["n"])
        words = ["0" * (n - 1 - k) + "1" * k for k in range(n)]
        if obj is None:
            ok = text == " ".join(w or "λ" for w in words)
        else:
            ok = obj["elements"] == words
        return None if ok else "wrong stage words"

    def _funcs(self, opt, text, obj):
        words = monotone_words(int(opt["m"]))
        got = text.split(" ") if obj is None else obj["functions"]
        return None if got == words else "wrong monotone maps"

    def _mu(self, opt, text, obj):
        expected = opt["map"] != "10"
        got = text == "continuous" if obj is None else obj["continuous"]
        return None if got is expected else "wrong continuity verdict"

    def _ep(self, opt, text, obj):
        scheme, n = opt.get("scheme", "standard"), int(opt["n"])
        e = [embed(scheme, n, k) for k in range(n)]
        p = [project(scheme, n, k) for k in range(n + 1)]
        if obj is None:
            lines = text.split("\n")
            if lines[0] != "e: " + " ".join(f"{k}->{v}" for k, v in enumerate(e)):
                return "wrong embedding"
            if lines[1] != "p: " + " ".join(f"{k}->{v}" for k, v in enumerate(p)):
                return "wrong projection"
            laws = lines[2:] == (["laws: ok"] if opt.get("check") else [])
            return None if laws else "laws line is not 'laws: ok'"
        if (obj["scheme"], obj["n"]) != (scheme, n):
            return "wrong scheme or stage"
        if obj["e"] != e or obj["p"] != p:
            return "wrong embedding or projection"
        laws = obj["laws"]
        ok = all(laws[k] is True for k in ("p_after_e_is_id", "e_after_p_below_id",
                                             "e_monotone", "p_monotone", "ok"))
        return None if ok and laws["witness"] is None else "ep laws not reported as holding"

    def _funcspace(self, opt, text, obj):
        if not opt.get("table"):
            return None
        if obj is None:
            # column labels may hold spaces, so the width comes from the rows
            lines = text.split("\n")
            at = next(i for i, line in enumerate(lines) if line.startswith("columns: "))
            bits = [line.rsplit(" ", 1)[1] for line in lines[at + 1:]]
            ncols = len(bits[0]) if bits else 0
        else:
            bits = [r["bits"] for r in obj["rows"]]
            ncols = len(obj["columns"])
        if not bits or not ncols:
            return "empty table"
        bad = next((b for b in bits if len(b) != ncols or not MONOTONE_BITS.fullmatch(b)), None)
        return None if bad is None else f"table row {bad[:20]!r} is not 0*1* over the columns"

    def _normalize(self, opt, text, obj):
        got = text if obj is None else obj["normal"]
        expected = normal_form(opt["word"])
        return None if got == expected else f"normal form {got!r}, expected {expected!r}"

    def _iso(self, opt, text, obj):
        expected = normal_form(opt["a"]) == normal_form(opt["b"])
        got = text.startswith("isomorphic:") if obj is None else obj["isomorphic"]
        return None if got is expected else "wrong isomorphism verdict"

    def _compare(self, opt, text, obj):
        a, b = (label_rank(opt["cpo"], opt[k]) for k in ("x", "y"))
        expected = RELATIONS[(a > b) - (a < b)]
        got = text.split()[1] if obj is None else obj["relation"]
        return None if got == expected else f"relation {got}, expected {expected}"

    def _diagram(self, opt, text, obj):
        dot = text if obj is None else obj["dot"]
        ranks = dot.count("rank=same;")
        return None if ranks == int(opt["depth"]) else f"{ranks} stage columns"

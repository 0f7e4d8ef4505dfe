"""Static kernel-protocol linter: project-specific AST rules (stdlib only).

Seven rules, each guarding an invariant the rest of the repo documents
and tests:

========  ==============================================================
RPR001    Shape/stride-dependent reductions (``np.einsum`` with a
          contracted subscript, ``.dot``, axis-less ``.sum()``) in
          kernel code.  ``repro.runtime`` guarantees chunked ==
          unsharded *bitwise*; a reduction whose accumulation order can
          vary with operand shapes breaks it (see ``batch_dot``).
RPR002    ``SharedMemory.write`` in a device-kernel function with no
          reachable ``sync()`` in the same function: a cross-thread
          publish with no barrier.
RPR003    Nondeterminism sources in ``runtime/`` / ``kernels/``:
          ``time.time``/``time_ns``, legacy global-state
          ``np.random.*`` / stdlib ``random.*`` calls, and iteration
          over a raw ``_families`` metric dict (arbitrary order).
RPR004    A file that calls ``allocate_shared`` but never
          ``charge_shared``: functional scratchpad traffic with no cost
          accounting, so Eq. 2's beta term silently under-counts.
RPR005    Float-literal ``==`` / ``!=`` comparisons outside tests.
RPR006    Unused suppression: an RPR code in a noqa comment whose rule
          ran on the file but reported nothing on that line.  Stale
          suppressions hide future regressions silently; delete them
          (or fix the code the comment claims to excuse).  Only codes
          of rules that actually ran are audited -- a scope-skipped
          rule's suppression is left alone -- and third-party codes
          (ruff's, say) are never touched.
RPR007    A direct ``log_event(...)`` or ``.instant(...)`` call in
          ``runtime/`` / ``resilience/``: events there go through
          :func:`repro.observe.events.emit`, whose table keeps the
          trace, log and metric channels of one event in step.
========  ==============================================================

Suppression is noqa-style: a trailing ``# noqa: RPR001`` comment (codes
comma-separated; bare ``# noqa`` silences every rule on the line) with,
by convention, a ``--`` reason.  The CLI (``python -m repro.analyze
lint``) emits human or JSON output and a ``--strict`` exit code; see
``docs/analyze.md`` for bad/good examples of every rule.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "UnknownRuleError",
    "lint_file",
    "lint_paths",
    "lint_source",
]


class UnknownRuleError(ValueError):
    """A requested rule code does not exist (a spec error, CLI exit 2)."""

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Legacy global-state numpy RNG entry points (seeded or not, they share
#: hidden process state; kernels must thread a Generator instead).
_NP_RANDOM_LEGACY = frozenset(
    {
        "rand", "randn", "random", "randint", "random_sample", "ranf",
        "sample", "seed", "shuffle", "permutation", "choice", "normal",
        "uniform", "standard_normal", "exponential", "beta", "gamma",
    }
)
_STDLIB_RANDOM = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "seed", "betavariate", "normalvariate",
    }
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint hit: a rule violation at a source position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclasses.dataclass(frozen=True)
class Rule:
    """A lint rule: code, summary, path scope, and its AST checker."""

    code: str
    summary: str
    #: Path fragments (posix, slash-wrapped) the rule applies to;
    #: ``None`` = everywhere.  Ignored when ``respect_scope=False``.
    scope: Optional[Tuple[str, ...]]
    checker: Callable[[ast.Module], List[Tuple[int, int, str]]]
    #: Rule is skipped for test files (paths containing ``/tests/`` or
    #: named ``test_*``/``bench_*``) when scoping is respected.
    skip_tests: bool = False


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as ``"a.b.c"``; ``None`` for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Last name component of a method call's receiver (``x.y.write`` -> y)."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call with its function name (``x.y.write`` -> ``write``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            yield node, name


def _einsum_reduces(spec: str) -> bool:
    """Whether an einsum subscript string contracts away any axis."""
    spec = spec.replace(" ", "")
    if "->" in spec:
        inputs, output = spec.split("->", 1)
    else:
        inputs = spec
        letters = [c for c in inputs if c.isalpha()]
        output = "".join(c for c in set(letters) if letters.count(c) == 1)
    in_letters = {c for c in inputs if c.isalpha()}
    return bool(in_letters - set(output))


# ----------------------------------------------------------------------
# Rule checkers: each returns (line, col, message) triples
# ----------------------------------------------------------------------
def _check_rpr001(tree: ast.Module) -> List[Tuple[int, int, str]]:
    hits = []
    for node, name in _calls(tree):
        func = node.func
        if name == "einsum":
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                if _einsum_reduces(node.args[0].value):
                    hits.append(
                        (
                            node.lineno,
                            node.col_offset,
                            "reducing np.einsum: accumulation order is "
                            "shape/stride-dependent; use batch_dot or an "
                            "explicit elementwise-multiply + axis sum for "
                            "the chunked==unsharded bitwise guarantee",
                        )
                    )
        elif name == "dot" and isinstance(func, ast.Attribute):
            hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    ".dot() dispatches to BLAS with shape-dependent "
                    "blocking; use batch_dot / @ on fixed axes",
                )
            )
        elif name == "sum" and isinstance(func, ast.Attribute):
            has_axis = bool(node.args) or any(
                kw.arg == "axis" for kw in node.keywords
            )
            if not has_axis:
                hits.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "axis-less .sum() reduces over every axis including "
                        "the batch; pass an explicit per-problem axis",
                    )
                )
    return hits


def _check_rpr002(tree: ast.Module) -> List[Tuple[int, int, str]]:
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        writes: List[ast.Call] = []
        has_sync = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "sync":
                has_sync = True
            elif isinstance(func, ast.Name) and func.id == "sync":
                has_sync = True
            elif isinstance(func, ast.Attribute) and func.attr == "write":
                receiver = _receiver_name(func)
                if receiver and receiver.startswith("sh"):
                    writes.append(sub)
        if writes and not has_sync:
            for call in writes:
                hits.append(
                    (
                        call.lineno,
                        call.col_offset,
                        f"shared-memory write in {node.name}() with no "
                        f"sync() in the same function: cross-thread "
                        f"publish without a barrier",
                    )
                )
    return hits


def _check_rpr003(tree: ast.Module) -> List[Tuple[int, int, str]]:
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            full = _dotted(node.func)
            if full is None:
                continue
            parts = full.split(".")
            if full in ("time.time", "time.time_ns"):
                hits.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{full}() is a nondeterminism source in kernel/"
                        f"runtime code; thread timestamps in explicitly",
                    )
                )
            elif (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[-2] == "random"
                and parts[-1] in _NP_RANDOM_LEGACY
            ):
                hits.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"legacy global-state {full}(); use a seeded "
                        f"np.random.default_rng Generator",
                    )
                )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM
            ):
                hits.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"stdlib {full}() draws from hidden global state; "
                        f"use a seeded Generator",
                    )
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            # unwrap .items()/.keys()/.values()
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("items", "keys", "values")
            ):
                iterable = iterable.func.value
            if isinstance(iterable, ast.Attribute) and iterable.attr == "_families":
                hits.append(
                    (
                        iterable.lineno,
                        iterable.col_offset,
                        "iterating a raw metric-family dict: exposition "
                        "order is insertion order, not deterministic "
                        "across runs; iterate sorted(...) keys",
                    )
                )
    return hits


def _check_rpr004(tree: ast.Module) -> List[Tuple[int, int, str]]:
    allocs: List[ast.Call] = []
    has_charge = False
    for node, name in _calls(tree):
        func = node.func
        if name == "allocate_shared":
            allocs.append(node)
        elif name == "charge_shared":
            has_charge = True
    if not allocs or has_charge:
        return []
    return [
        (
            call.lineno,
            call.col_offset,
            "allocate_shared() with no charge_shared() anywhere in this "
            "file: scratchpad traffic is never cost-accounted (Eq. 2 "
            "beta term under-counts)",
        )
        for call in allocs
    ]


def _check_rpr005(tree: ast.Module) -> List[Tuple[int, int, str]]:
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(
            isinstance(o, ast.Constant) and isinstance(o.value, float)
            for o in operands
        ):
            hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    "float-literal ==/!= comparison: rounding makes exact "
                    "float equality fragile; compare against a tolerance "
                    "or an integer sentinel",
                )
            )
    return hits


def _check_rpr007(tree: ast.Module) -> List[Tuple[int, int, str]]:
    hits = []
    for node, name in _calls(tree):
        func = node.func
        if name == "log_event" or (
            name == "instant" and isinstance(func, ast.Attribute)
        ):
            hits.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"direct {name}() writes one telemetry channel; emit "
                    "the event through repro.observe.events.emit() so its "
                    "trace, log and metric stay in step",
                )
            )
    return hits


def _check_rpr006(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """Placeholder: RPR006 audits noqa comments, not the AST.

    Findings are synthesized by :func:`lint_source` after every other
    selected rule has run, because "unused" is only decidable once we
    know which suppressions absorbed a real finding.
    """
    return []


RULES: Dict[str, Rule] = {
    "RPR001": Rule(
        "RPR001",
        "shape/stride-dependent reduction in kernel code",
        scope=("/kernels/device/", "/kernels/batched/"),
        checker=_check_rpr001,
    ),
    "RPR002": Rule(
        "RPR002",
        "shared-memory write with no sync() in the same function",
        scope=("/kernels/device/",),
        checker=_check_rpr002,
    ),
    "RPR003": Rule(
        "RPR003",
        "nondeterminism source in runtime/kernel code",
        scope=("/runtime/", "/kernels/"),
        checker=_check_rpr003,
    ),
    "RPR004": Rule(
        "RPR004",
        "allocate_shared never cost-accounted via charge_shared",
        scope=None,
        checker=_check_rpr004,
    ),
    "RPR005": Rule(
        "RPR005",
        "float-literal equality comparison",
        scope=None,
        checker=_check_rpr005,
        skip_tests=True,
    ),
    "RPR006": Rule(
        "RPR006",
        "unused noqa suppression",
        scope=None,
        checker=_check_rpr006,
    ),
    "RPR007": Rule(
        "RPR007",
        "event written to one channel instead of through emit()",
        scope=("/runtime/", "/resilience/"),
        checker=_check_rpr007,
        skip_tests=True,
    ),
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _noqa_lines(source: str) -> Dict[int, Optional[frozenset]]:
    """Per-line suppressions: ``None`` = bare noqa (all), else codes."""
    out: Dict[int, Optional[frozenset]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


def _suppressed(
    finding_line: int,
    end_line: int,
    code: str,
    noqa: Dict[int, Optional[frozenset]],
) -> bool:
    for lineno in (finding_line, end_line):
        codes = noqa.get(lineno, False)
        if codes is False:
            continue
        if codes is None or code in codes:
            return True
    return False


def _mark_used(
    finding_line: int,
    end_line: int,
    code: str,
    noqa: Dict[int, Optional[frozenset]],
    used: set,
) -> None:
    """Record which explicit (line, code) suppressions absorbed a finding."""
    for lineno in (finding_line, end_line):
        codes = noqa.get(lineno, False)
        if codes is not False and codes is not None and code in codes:
            used.add((lineno, code))


def _is_test_path(posix: str) -> bool:
    name = posix.rsplit("/", 1)[-1]
    return (
        "/tests/" in posix
        or name.startswith("test_")
        or name.startswith("bench_")
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Lint one source string; the workhorse behind :func:`lint_file`.

    ``respect_scope=False`` applies every requested rule regardless of
    the file's location -- how the golden-fixture tests exercise rules
    scoped to kernel directories.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="RPR000",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    posix = "/" + Path(path).as_posix().lstrip("/")
    noqa = _noqa_lines(source)
    findings: List[Finding] = []
    if rules is not None:
        requested = list(rules)
        unknown = [c for c in requested if c not in RULES]
        if unknown:
            raise UnknownRuleError(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"known rules: {', '.join(RULES)}"
            )
        selected = [RULES[c] for c in requested]
    else:
        selected = list(RULES.values())
    used: set = set()
    ran: set = set()
    audit_unused = False
    for rule in selected:
        if respect_scope:
            if rule.scope is not None and not any(s in posix for s in rule.scope):
                continue
            if rule.skip_tests and _is_test_path(posix):
                continue
        ran.add(rule.code)
        if rule.code == "RPR006":
            audit_unused = True
            continue
        for line, col, message in rule.checker(tree):
            end_line = line
            if _suppressed(line, end_line, rule.code, noqa):
                _mark_used(line, end_line, rule.code, noqa, used)
            else:
                findings.append(
                    Finding(
                        rule=rule.code, path=path, line=line, col=col,
                        message=message,
                    )
                )
    if audit_unused:
        # Audit only codes whose rule actually ran on this file: a
        # scope-skipped rule might have fired here, so its suppressions
        # are not provably stale.  Bare noqa and non-RPR codes are
        # someone else's business.
        for lineno in sorted(noqa):
            codes = noqa[lineno]
            if codes is None:
                continue
            for code in sorted(codes):
                if not code.startswith("RPR") or code == "RPR006":
                    continue
                if code not in ran or (lineno, code) in used:
                    continue
                if _suppressed(lineno, lineno, "RPR006", noqa):
                    continue
                findings.append(
                    Finding(
                        rule="RPR006",
                        path=path,
                        line=lineno,
                        col=0,
                        message=(
                            f"unused suppression: {code} ran on this file "
                            f"but reported nothing on this line; delete "
                            f"the noqa or fix what it claims to excuse"
                        ),
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path,
    rules: Optional[Iterable[str]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Lint one Python file."""
    p = Path(path)
    return lint_source(
        p.read_text(), path=str(p), rules=rules, respect_scope=respect_scope
    )


def lint_paths(
    paths: Sequence,
    rules: Optional[Iterable[str]] = None,
    respect_scope: bool = True,
) -> List[Finding]:
    """Lint files and directory trees (``*.py``, recursively)."""
    findings: List[Finding] = []
    for entry in paths:
        p = Path(entry)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(
                lint_file(f, rules=rules, respect_scope=respect_scope)
            )
    return findings

"""Schema validation for observability artifacts (traces + witnesses).

Two document families, both usable from the CLI::

    python -m repro.obs.validate trace.json      # Chrome trace-event JSON
    python -m repro.obs.validate witness.json    # race-witness report JSON

The Chrome trace-event format has no official JSON Schema; this module
encodes the subset the :class:`~repro.obs.trace.RingTracer` emits (and
Perfetto requires): a ``traceEvents`` array of objects whose phases are
``X`` (complete, with a non-negative ``dur``), ``i`` (instant, with scope
in ``t``/``p``/``g``) or ``M`` (metadata), each carrying string ``name``/
``cat`` (metadata excepted for ``cat``), numeric ``ts`` and integer
``pid``/``tid``.  Instant timestamps must additionally be monotone per
``(pid, tid)`` track — the tracer emits them in order from a monotonic
clock, so a decrease means a corrupted or hand-edited trace.  (Complete
``X`` spans are exempt: nested spans close inner-first, so their emission
order is not ``ts`` order.)

Witness documents are the ``repro.race-witness-report/1`` JSON written by
``repro-racecheck --witness-json`` (and fuzz triage): the race fields plus
the non-ordering certificate from
:meth:`~repro.core.array_dtrg.ArrayDTRG.explain_precede`, whose set
``rep`` is the set's root-most member (the first of its ``members``).
The CLI auto-detects the document kind from its top-level keys.

Exit status: 0 valid, 1 invalid (including unreadable/truncated JSON —
with a pointed message, never a traceback), 2 usage error / missing file.
"""

from __future__ import annotations

import sys
from typing import Any, List

__all__ = [
    "validate_chrome_trace",
    "validate_witness",
    "validate_witness_report",
    "trace_dropped_events",
    "main",
]


def trace_dropped_events(data) -> int:
    """Ring-buffer drop count recorded in a Chrome trace export, read
    from ``otherData.dropped`` with the ``trace_buffer_stats`` metadata
    record as fallback (hand-trimmed traces sometimes lose one or the
    other).  0 when absent or malformed."""
    if not isinstance(data, dict):
        return 0
    other = data.get("otherData")
    if isinstance(other, dict):
        dropped = other.get("dropped")
        if isinstance(dropped, int) and not isinstance(dropped, bool):
            return max(dropped, 0)
    for event in data.get("traceEvents", []) or []:
        if (isinstance(event, dict) and event.get("ph") == "M"
                and event.get("name") == "trace_buffer_stats"):
            args = event.get("args")
            if isinstance(args, dict):
                dropped = args.get("dropped")
                if isinstance(dropped, int) and not isinstance(dropped, bool):
                    return max(dropped, 0)
    return 0

_PHASES = {"X", "i", "M"}
_INSTANT_SCOPES = {"t", "p", "g"}
_WITNESS_SCHEMA = "repro.race-witness/1"
_REPORT_SCHEMA = "repro.race-witness-report/1"
_RACE_KINDS = {"read-write", "write-write", "write-read"}


def validate_chrome_trace(data: Any) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    last_instant_ts: dict = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing integer 'pid'")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: missing integer 'tid'")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        if ph == "M":
            continue  # metadata carries no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"{where}: missing numeric 'ts'")
            continue
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: missing string 'cat'")
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or isinstance(dur, bool) or dur < 0):
                problems.append(f"{where}: 'X' needs non-negative 'dur'")
        elif ph == "i":
            if event.get("s", "t") not in _INSTANT_SCOPES:
                problems.append(f"{where}: bad instant scope {event.get('s')!r}")
            track = (event.get("pid"), event.get("tid"))
            last = last_instant_ts.get(track)
            if last is not None and ts < last:
                problems.append(
                    f"{where}: instant 'ts' {ts} goes backwards on track "
                    f"pid={track[0]} tid={track[1]} (previous {last})"
                )
            last_instant_ts[track] = ts
    return problems


# ---------------------------------------------------------------------- #
# Witness documents                                                      #
# ---------------------------------------------------------------------- #
def _check_fields(obj: dict, where: str, spec, problems: List[str]) -> None:
    """``spec``: iterable of (key, type-or-tuple, required)."""
    for key, types, required in spec:
        if key not in obj:
            if required:
                problems.append(f"{where}: missing '{key}'")
            continue
        value = obj[key]
        if value is None and not required:
            continue
        if not isinstance(value, types) or isinstance(value, bool) and (
            types is int or types == (int,)
        ):
            problems.append(
                f"{where}: '{key}' must be {types}, "
                f"got {type(value).__name__}"
            )


def validate_witness(data: Any, where: str = "witness") -> List[str]:
    """Validate one ``repro.race-witness/1`` object."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"{where}: not an object"]
    if data.get("schema") != _WITNESS_SCHEMA:
        problems.append(
            f"{where}: 'schema' must be {_WITNESS_SCHEMA!r}, "
            f"got {data.get('schema')!r}"
        )
    _check_fields(data, where, [("witness_id", str, True)], problems)
    race = data.get("race")
    if not isinstance(race, dict):
        problems.append(f"{where}: missing object 'race'")
    else:
        rw = f"{where}.race"
        _check_fields(race, rw, [
            ("prev_task", int, True),
            ("current_task", int, True),
            ("prev_name", str, False),
            ("current_name", str, False),
            ("prev_site", str, False),
            ("current_site", str, False),
        ], problems)
        if "loc" not in race:
            problems.append(f"{rw}: missing 'loc'")
        if race.get("kind") not in _RACE_KINDS:
            problems.append(f"{rw}: bad race kind {race.get('kind')!r}")
    cert = data.get("certificate")
    if not isinstance(cert, dict):
        problems.append(f"{where}: missing object 'certificate'")
        return problems
    cw = f"{where}.certificate"
    if cert.get("verdict") is not False:
        problems.append(
            f"{cw}: 'verdict' must be false (a witness certifies "
            f"non-ordering), got {cert.get('verdict')!r}"
        )
    for key in ("a_label", "b_label"):
        label = cert.get(key)
        if not isinstance(label, dict) or not all(
            isinstance(label.get(f), int) and not isinstance(label.get(f), bool)
            for f in ("pre", "post")
        ):
            problems.append(f"{cw}: '{key}' must hold integer pre/post")
    for key in ("a_set", "b_set"):
        info = cert.get(key)
        if not isinstance(info, dict):
            problems.append(f"{cw}: missing object '{key}'")
            continue
        if "rep" not in info:
            problems.append(f"{cw}.{key}: missing 'rep'")
        if not isinstance(info.get("nt"), list):
            problems.append(f"{cw}.{key}: 'nt' must be an array")
        if not isinstance(info.get("members"), list):
            problems.append(f"{cw}.{key}: 'members' must be an array")
    level0 = cert.get("level0")
    if not isinstance(level0, dict) or not all(
        isinstance(v, bool) for v in level0.values()
    ):
        problems.append(f"{cw}: 'level0' must be an object of booleans")
    search = cert.get("search", None)
    if search is not None:
        if not isinstance(search, dict):
            problems.append(f"{cw}: 'search' must be an object or null")
        else:
            if not isinstance(search.get("expanded"), list):
                problems.append(f"{cw}.search: 'expanded' must be an array")
            if not isinstance(search.get("lsa_chain"), list):
                problems.append(f"{cw}.search: 'lsa_chain' must be an array")
            if not isinstance(search.get("frontier_exhausted"), bool):
                problems.append(
                    f"{cw}.search: missing boolean 'frontier_exhausted'"
                )
    return problems


def validate_witness_report(data: Any) -> List[str]:
    """Validate a ``repro.race-witness-report/1`` document (or a single
    bare witness object, accepted for convenience)."""
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    if data.get("schema") == _WITNESS_SCHEMA:
        return validate_witness(data)
    problems: List[str] = []
    if data.get("schema") != _REPORT_SCHEMA:
        problems.append(
            f"'schema' must be {_REPORT_SCHEMA!r}, got {data.get('schema')!r}"
        )
    witnesses = data.get("witnesses")
    if not isinstance(witnesses, list):
        problems.append("missing or non-array 'witnesses'")
        return problems
    for i, witness in enumerate(witnesses):
        problems.extend(validate_witness(witness, where=f"witnesses[{i}]"))
    return problems


def main(argv: List[str] | None = None) -> int:
    import json

    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.validate TRACE_OR_WITNESS.json",
              file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot open {argv[0]}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Truncated or otherwise malformed JSON is a *validation* failure
        # (exit 1), reported pointedly — never a traceback.
        print(f"invalid: {argv[0]} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if isinstance(data, dict) and (
        data.get("schema") in (_WITNESS_SCHEMA, _REPORT_SCHEMA)
        or "witnesses" in data
    ):
        kind = "witness report"
        problems = validate_witness_report(data)
        count = len(data.get("witnesses", [])) if isinstance(
            data.get("witnesses"), list) else 1
        summary = f"{count} witness(es)"
    else:
        kind = "Chrome trace"
        problems = validate_chrome_trace(data)
        events = data.get("traceEvents", []) if isinstance(data, dict) else []
        dropped = trace_dropped_events(data)
        if dropped:
            # Drops are a *warning*, not a schema failure: the trace is
            # well-formed, it just isn't the whole run.
            print(
                f"warning: ring buffer dropped {dropped} event(s) — "
                f"the trace holds only the latest window "
                f"(raise RingTracer capacity to keep more)",
                file=sys.stderr,
            )
        phases: dict = {}
        for event in events:
            if isinstance(event, dict):
                phases[event.get("ph")] = phases.get(event.get("ph"), 0) + 1
        summary = (f"{len(events)} events: " + ", ".join(
            f"{n} {ph!r}" for ph, n in sorted(
                phases.items(), key=lambda kv: str(kv[0]))))
    if problems:
        for problem in problems[:50]:
            print(f"invalid: {problem}", file=sys.stderr)
        if len(problems) > 50:
            print(f"... and {len(problems) - 50} more", file=sys.stderr)
        return 1
    print(f"{argv[0]}: valid {kind} ({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The ``repro-trace`` command line tool.

Summarize, validate or convert a Chrome-trace JSON produced by
:mod:`repro.trace`::

    repro-trace summary results/lenet_trace.json
    repro-trace validate results/lenet_trace.json
    repro-trace convert results/lenet_trace.json --format text

``summary`` prints the event census plus the NVProf-style per-kernel
table reconstructed *from the trace* (the bridge path — no live
runtime involved); ``validate`` exits non-zero if the file violates
the Chrome-trace schema contract; ``convert`` renders a text timeline.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.trace.bridge import kernel_records_from_events
from repro.trace.export import (
    load_chrome_trace, render_text_timeline, validate_chrome_events)


def _load(path: str) -> list[dict]:
    try:
        return load_chrome_trace(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro-trace: {error}")


def _cmd_validate(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    problems = validate_chrome_events(events)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}")
        return 1
    print(f"ok: {len(events)} events, schema valid, B/E balanced")
    return 0


def _print_megablock_census(events: list[dict]) -> None:
    """Why did kernels leave the fast tier?  Census of the engine's
    ``megablock-fallback:<kernel>`` / ``megablock-bailout:<kernel>``
    instants (reasons ride in ``args``) plus the final value of the
    ``megablock`` tier-event counter series."""
    fallbacks: Counter = Counter()
    bailouts: Counter = Counter()
    reasons: Counter = Counter()
    last_counter: dict | None = None
    for event in events:
        name = event.get("name", "")
        if event.get("ph") == "i":
            if name.startswith("megablock-fallback:"):
                fallbacks[name.split(":", 1)[1]] += 1
                for reason in (event.get("args") or {}).get(
                        "reasons", []):
                    reasons[str(reason)] += 1
            elif name.startswith("megablock-bailout:"):
                bailouts[name.split(":", 1)[1]] += 1
        elif event.get("ph") == "C" and name == "megablock":
            last_counter = event.get("args") or {}
    if fallbacks:
        print("  megablock fallbacks: "
              + ", ".join(f"{k}={n}"
                          for k, n in sorted(fallbacks.items())))
        for reason, count in reasons.most_common(5):
            print(f"    reason x{count}: {reason}")
    if bailouts:
        print("  megablock bailouts: "
              + ", ".join(f"{k}={n}"
                          for k, n in sorted(bailouts.items())))
    if last_counter:
        print("  megablock tier events: "
              + ", ".join(f"{k}={v}"
                          for k, v in sorted(last_counter.items())))


def _print_feed_census(events: list[dict]) -> None:
    """Which feed drove each timing launch: ``trace`` (replayed from a
    recording megablock run) or ``execution`` (the scalar engine), with
    the reasons launches could not be traced."""
    feeds: Counter = Counter()
    reasons: Counter = Counter()
    for event in events:
        if (event.get("ph") != "X"
                or not event.get("name", "").startswith("timing:")):
            continue
        args = event.get("args") or {}
        if "feed" not in args:
            continue
        feeds[args["feed"]] += 1
        if "feed_reason" in args:
            reasons[str(args["feed_reason"])] += 1
    if feeds:
        print("  timing feeds: "
              + ", ".join(f"{k}={n}" for k, n in sorted(feeds.items())))
        for reason, count in reasons.most_common(5):
            print(f"    execution-driven x{count}: {reason}")


def _cmd_summary(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    problems = validate_chrome_events(events)
    phases = Counter(e.get("ph", "?") for e in events)
    tracks = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[event["tid"]] = (event.get("args") or {}).get("name")
    print(f"{args.trace}: {len(events)} events "
          f"({', '.join(f'{p}={n}' for p, n in sorted(phases.items()))})")
    if problems:
        print(f"  WARNING: {len(problems)} schema problems "
              f"(run `repro-trace validate`)")
    for tid, name in sorted(tracks.items()):
        print(f"  track {tid}: {name}")
    cache = Counter()
    for event in events:
        if event.get("cat") == "kernelcache" and event.get("ph") == "i":
            parts = event.get("name", "").split(":")
            if len(parts) >= 2:
                cache[parts[1]] += 1
    if cache:
        print("  kernel cache: "
              + ", ".join(f"{k}={n}" for k, n in sorted(cache.items())))
    _print_megablock_census(events)
    _print_feed_census(events)
    records = kernel_records_from_events(events)
    if not records:
        print("no kernel slices in trace")
        return 0
    span = max(r.end for r in records) - min(r.start for r in records)
    print(f"{len(records)} kernel launches over {span:.0f} sim units")
    from repro.harness.profiler import NVProfLike
    print(NVProfLike(records).render(top=args.top))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    events = _load(args.trace)
    if args.format == "text":
        rendered = render_text_timeline(events, max_events=args.max_events)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown format {args.format!r}")
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize, validate or convert a repro.trace "
                    "Chrome-trace JSON file.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="event census + per-kernel NVProf table")
    p_summary.add_argument("trace")
    p_summary.add_argument("--top", type=int, default=10,
                           help="kernel rows to show (default 10)")
    p_summary.set_defaults(func=_cmd_summary)

    p_validate = sub.add_parser(
        "validate", help="schema-check the trace (exit 1 if invalid)")
    p_validate.add_argument("trace")
    p_validate.set_defaults(func=_cmd_validate)

    p_convert = sub.add_parser(
        "convert", help="render the trace in another format")
    p_convert.add_argument("trace")
    p_convert.add_argument("--format", choices=["text"], default="text")
    p_convert.add_argument("--max-events", type=int, default=None)
    p_convert.add_argument("-o", "--output", default=None)
    p_convert.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

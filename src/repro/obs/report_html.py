"""Self-contained HTML race report (``repro-racecheck --html``).

One static HTML file, no external assets or scripts: a summary table of
the deduplicated races, one collapsible section per witness showing the
full non-ordering certificate (interval labels, set membership, LSA chain,
exhausted VISIT frontier), the flight-recorder tail, and — when the run
also built the computation graph — the witness-highlighted DOT source for
rendering with Graphviz.  Everything is escaped; the file is safe to open
from an untrusted program's run.
"""

from __future__ import annotations

import html
from typing import Iterable, List, Optional

from repro.core.races import report_order
from repro.obs.provenance import RaceProvenance, RaceWitness, _fmt_label

__all__ = ["render_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1b1f24; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #d0d7de;
     padding-bottom: .4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: .9rem; }
th, td { border: 1px solid #d0d7de; padding: .35rem .6rem;
         text-align: left; vertical-align: top; }
th { background: #f6f8fa; }
code, pre { font-family: ui-monospace, 'SFMono-Regular', Menlo, monospace;
            font-size: .85rem; }
pre { background: #f6f8fa; border: 1px solid #d0d7de; border-radius: 6px;
      padding: .8rem; overflow-x: auto; }
.race { color: #cf222e; font-weight: 600; }
.ok { color: #1a7f37; font-weight: 600; }
.site { color: #57606a; }
details { margin: .8rem 0; }
summary { cursor: pointer; font-weight: 600; }
.badge { display: inline-block; border-radius: 10px; padding: 0 .5rem;
         font-size: .75rem; background: #ddf4ff; color: #0969da; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _witness_section(witness: RaceWitness) -> List[str]:
    cert = witness.certificate or {}
    prev = witness.prev_name or f"task {witness.prev_task}"
    cur = witness.current_name or f"task {witness.current_task}"
    out = [
        f'<details open id="{_esc(witness.witness_id)}">',
        f"<summary>witness <code>{_esc(witness.witness_id)}</code>: "
        f'<span class="race">{_esc(witness.kind)}</span> race on '
        f"<code>{_esc(repr(witness.loc))}</code></summary>",
        "<table>",
        "<tr><th></th><th>task</th><th>site</th><th>set rep</th>"
        "<th>interval label</th></tr>",
    ]
    for role, name, tid, site, key in (
        ("previous", prev, witness.prev_task, witness.prev_site, "a_set"),
        ("current", cur, witness.current_task, witness.current_site, "b_set"),
    ):
        info = cert.get(key, {})
        out.append(
            f"<tr><td>{role}</td><td>{_esc(name)} (tid {tid})</td>"
            f'<td class="site">{_esc(site or "—")}</td>'
            f"<td>{_esc(info.get('rep', '?'))}</td>"
            f"<td><code>{_esc(_fmt_label(info.get('label', {})))}</code>"
            "</td></tr>"
        )
    out.append("</table>")
    level0 = cert.get("level0", {})
    checks = ", ".join(
        f"{k}={'yes' if v else 'no'}" for k, v in level0.items()
    ) or "(no certificate)"
    out.append(f"<p>level-0 checks: <code>{_esc(checks)}</code></p>")
    search = cert.get("search")
    if search is None:
        reason = ("preorder prune" if level0.get("preorder_pruned")
                  else "level-0")
        out.append(f"<p>PRECEDE resolved without search ({_esc(reason)}); "
                   "no backward path can exist.</p>")
    else:
        chain = search.get("lsa_chain", [])
        out.append(
            f"<p>VISIT expanded {len(search.get('expanded', []))} set(s), "
            f"LSA chain <code>{_esc(chain)}</code>, frontier exhausted: "
            f"<code>{_esc(search.get('frontier_exhausted'))}</code></p>"
        )
        out.append("<table><tr><th>set rep</th><th>via</th>"
                   "<th>label</th><th>non-tree predecessors scanned</th></tr>")
        for rec in search.get("expanded", []):
            out.append(
                f"<tr><td>{_esc(rec.get('rep'))}</td>"
                f"<td>{_esc(rec.get('via'))}</td>"
                f"<td><code>{_esc(_fmt_label(rec.get('label', {})))}</code>"
                f"</td><td><code>{_esc(rec.get('nt_scanned'))}</code>"
                "</td></tr>"
            )
        out.append("</table>")
    out.append(
        "<p>Reverse direction: serial depth-first execution places the "
        "current access after every completed step of the previous task's "
        "access, so neither access precedes the other — the pair is "
        "logically parallel (Definition 3).</p>"
    )
    out.append("</details>")
    return out


def render_html_report(
    *,
    program: str,
    report,
    witnesses: Iterable[RaceWitness],
    provenance: Optional[RaceProvenance] = None,
    dot_source: Optional[str] = None,
    verified: Optional[bool] = None,
) -> str:
    """Build the full report HTML (returns the document as a string)."""
    witnesses = list(witnesses)
    races = list(report)
    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>race report: {_esc(program)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>Determinacy race report — <code>{_esc(program)}</code></h1>",
    ]
    if races:
        verdict = f'<span class="race">{len(races)} race(s) detected</span>'
    else:
        verdict = '<span class="ok">no determinacy races detected</span>'
    if verified is not None:
        verdict += (
            ' &nbsp;<span class="badge">witnesses verified against '
            'brute-force graph</span>' if verified else
            ' &nbsp;<span class="race">witness verification FAILED</span>'
        )
    out.append(f"<p>{verdict}</p>")

    if races:
        out.append("<h2>Races</h2><table>")
        out.append("<tr><th>location</th><th>kind</th><th>previous access"
                   "</th><th>current access</th><th>witness</th></tr>")
        for loc_repr, race in report_order(races):
            wid = race.witness_id
            link = (f'<a href="#{_esc(wid)}"><code>{_esc(wid)}</code></a>'
                    if wid else "—")
            out.append(
                f"<tr><td><code>{_esc(loc_repr)}</code></td>"
                f"<td>{_esc(race.kind)}</td>"
                f"<td>{_esc(race.prev_name or race.prev_task)}"
                f'<br><span class="site">{_esc(race.prev_site or "—")}'
                "</span></td>"
                f"<td>{_esc(race.current_name or race.current_task)}"
                f'<br><span class="site">{_esc(race.current_site or "—")}'
                "</span></td>"
                f"<td>{link}</td></tr>"
            )
        out.append("</table>")

    if witnesses:
        out.append("<h2>Witnesses (non-ordering certificates)</h2>")
        out.append(
            "<p>Each certificate shows why <code>PRECEDE(prev, current)"
            "</code> is false in the dynamic task reachability graph: the "
            "interval labels rule out a tree ancestry, and the backward "
            "search over non-tree join edges and the LSA chain exhausts "
            "its frontier without reaching the previous task's set.</p>"
        )
        for witness in witnesses:
            out.extend(_witness_section(witness))

    if provenance is not None:
        recent = provenance.recent(50)
        out.append("<h2>Flight recorder (most recent events)</h2>")
        out.append(
            f"<p>{provenance.num_events} events recorded, "
            f"{len(provenance.sites)} distinct sites interned"
            + (f", {provenance.sites.num_dropped} dropped (table full)"
               if provenance.sites.num_dropped else "")
            + ".</p>"
        )
        out.append("<table><tr><th>event</th><th>task</th><th>detail</th>"
                   "<th>site</th></tr>")
        for kind, tid, detail, sid in recent:
            out.append(
                f"<tr><td>{_esc(kind)}</td><td>{tid}</td>"
                f"<td><code>{_esc(repr(detail))}</code></td>"
                f'<td class="site">'
                f"{_esc(provenance.site_label(sid) or '—')}</td></tr>"
            )
        out.append("</table>")

    if dot_source is not None:
        out.append("<h2>Computation graph (witness overlay)</h2>")
        out.append("<details><summary>Graphviz DOT source — render with "
                   "<code>dot -Tsvg</code></summary>")
        out.append(f"<pre>{_esc(dot_source)}</pre></details>")

    out.append("</body></html>")
    return "\n".join(out)

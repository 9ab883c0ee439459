"""Seeded input generation: the only thing the stack ever sees of ``--seed``.

Events are the tracking-event dict ``bench_wallclock._json_ish`` uses
(~250 B of JSON-ish fields).  The seed picks *which* member, session and
page each event belongs to; every field is fixed-width and the enum-ish
fields cycle by index, so two seeds produce byte-for-byte equally sized
records and differ only in key skew (which partition and which state-store
key each record lands on).  That keeps the exact, simulated metrics within a
fraction of a percent across seeds while still exercising different inputs.
"""

from __future__ import annotations

import random

#: Size of the member population keys are drawn from.
MEMBERS = 5_000
SESSIONS = 50_000
PAGES = 20

_USER_AGENT = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36"


def member_key(member: int) -> str:
    return f"member-{member:06d}"


def make_events(seed: int, count: int) -> list[dict]:
    """``count`` events; ``seq`` is the produce order and identifies the
    event in every oracle."""
    rng = random.Random(seed)
    randrange = rng.randrange
    events = []
    for i in range(count):
        events.append(
            {
                "seq": i,
                "event_type": "page_view" if i % 3 else "click",
                "member_id": f"member-{randrange(MEMBERS):06d}",
                "session_id": f"session-{randrange(SESSIONS):08d}",
                "page_key": f"/feed/updates/{randrange(PAGES):02d}",
                "user_agent": _USER_AGENT,
                "locale": "en_US",
                "properties": {
                    "position": i % 10,
                    "channel": "web",
                    "treatment": "A",
                },
            }
        )
    return events


def running_counts(events: list[dict]) -> list[int]:
    """Plain-dict fold of the job the stateful workloads run: element ``i``
    is how often ``events[i]``'s member has occurred in ``events[:i + 1]``."""
    seen: dict[str, int] = {}
    out = []
    for event in events:
        key = event["member_id"]
        count = seen.get(key, 0) + 1
        seen[key] = count
        out.append(count)
    return out

"""Push-based record updates: pub/sub vs. TTL polling.

The paper's TTL trade-off — freshness versus query volume — exists
because polling is the only update channel plain DNS has.  This package
builds the alternative the paper's discussion gestures at: resolvers
keep a long-lived session to push-capable authoritatives (RFC 8490 DSO
flattened onto the sim's length-framed TCP transport), SUBSCRIBE to the
records they resolve, and receive NOTIFY frames when zones change,
applying each update in place.

- :mod:`repro.push.publisher` — authoritative-side zone change feed with
  coalescing per-subscriber queues and fault-aware fan-out.
- :mod:`repro.push.subscriber` — resolver-side sessions, NOTIFY intake,
  keepalives and seeded reconnect backoff, tuned by its constants
  (``KEEPALIVE_INTERVAL_S``, ``MAX_SUBSCRIPTIONS`` and the ``RECONNECT_*``
  ladder).

``scenario_push_vs_poll`` (:mod:`repro.core.scenarios`) runs the two
models head to head under renumbering and DDoS fault plans.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "publisher": ("PendingNotify", "PushKey", "PushPublisher", "attach_publisher"),
    "subscriber": (
        "KEEPALIVE_INTERVAL_S", "MAX_SUBSCRIPTIONS", "RECONNECT_BASE_S",
        "RECONNECT_FACTOR", "RECONNECT_JITTER", "RECONNECT_RUNGS",
        "STALENESS_BUCKETS_S", "PushClient", "derive_client_seed",
    ),
})

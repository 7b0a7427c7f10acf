"""The paper's core: effective-TTL analysis, worlds, and scenarios.

- :mod:`repro.core.effective_ttl` — the analytical model of which TTL wins
  (the paper's §2 question, "which TTLs matter?"),
- :mod:`repro.core.worlds` — canonical simulated Internets: the .cl, .uy,
  google.co, cachetest.net, .nl and controlled-experiment configurations,
- :mod:`repro.core.scenarios` — one runnable scenario per paper section,
  producing the data behind every table and figure,
- :mod:`repro.core.recommendations` — the §6 operator guidance engine.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "effective_ttl": ("DelegationConfig", "EffectiveTTL", "effective_record_ttl",
                      "effective_switch_time"),
    "worlds": ("World", "build_base_world"),
    "recommendations": ("Recommendation", "recommend"),
    "audit": ("Finding", "audit_zone", "render_report"),
})

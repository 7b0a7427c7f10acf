"""TTL crawling of top lists (paper §5.1).

- :mod:`repro.crawler.toplists` — synthetic Alexa / Majestic / Umbrella /
  .nl / root list generators, distributionally calibrated to Table 5 and
  Figure 9, hosted on simulated authoritative servers,
- :mod:`repro.crawler.crawl` — the crawler: queries the parent and the
  child authoritative servers directly (no shared recursives) for NS, A,
  AAAA, MX, DNSKEY and CNAME records,
- :mod:`repro.crawler.dmap` — DMap-style content classification of .nl
  domains (Tables 6 and 7),
- :mod:`repro.crawler.report` — the Table 5/8/9 and Figure 9 aggregations.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "toplists": ("LIST_PROFILES", "CrawlUniverse", "ListProfile", "build_crawl_universe"),
    "crawl": ("CrawlRecord", "Crawler", "CrawlResult", "crawl_parallel"),
    "dmap": ("ContentCategory", "DMapReport", "dmap_classify"),
    "report": ("bailiwick_census", "record_counts", "ttl_cdf_by_type", "ttl_zero_census"),
})

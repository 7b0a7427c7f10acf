"""A RIPE-Atlas-like measurement platform.

The paper measures from ~10k Atlas probes; each (probe, resolver) pair is a
*vantage point* (VP), giving ~15k VPs across ~3.3k ASes.  This package
generates such populations (:mod:`repro.atlas.population`), schedules
periodic DNS measurements from every VP (:mod:`repro.atlas.measurement`),
and collects results into datasets with the same validity filtering the
paper applies (:mod:`repro.atlas.results`).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "probe": ("Probe", "VantagePoint"),
    "population": ("AtlasConfig", "AtlasPopulation"),
    "measurement": ("Measurement", "MeasurementSpec"),
    "results": ("MeasurementResult", "ResultSet"),
    "datasets": ("load_results", "save_results"),
})

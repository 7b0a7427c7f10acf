"""A RIPE-Atlas-like measurement platform.

The paper measures from ~10k Atlas probes; each (probe, resolver) pair is a
*vantage point* (VP), giving ~15k VPs across ~3.3k ASes.  This package
generates such populations (:mod:`repro.atlas.population`), schedules
periodic DNS measurements from every VP (:mod:`repro.atlas.measurement`),
and collects results into datasets with the same validity filtering the
paper applies (:mod:`repro.atlas.results`).
"""

from repro.atlas.probe import Probe, VantagePoint
from repro.atlas.population import AtlasConfig, AtlasPopulation
from repro.atlas.measurement import Measurement, MeasurementSpec
from repro.atlas.results import MeasurementResult, ResultSet
from repro.atlas.datasets import load_results, save_results

__all__ = [
    "AtlasConfig",
    "AtlasPopulation",
    "Measurement",
    "MeasurementResult",
    "MeasurementSpec",
    "Probe",
    "ResultSet",
    "VantagePoint",
    "load_results",
    "save_results",
]

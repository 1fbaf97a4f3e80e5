"""Architecture generation: branch-and-bound mapping (paper Section 5)."""

from repro.synth.greedy import map_sfg_greedy
from repro.synth.mapper import (
    ArchitectureMapper,
    MapperOptions,
    MappingResult,
    MappingStatistics,
    map_design,
    map_sfg,
)
from repro.synth.netlist import ComponentInstance, Netlist
from repro.synth.transforms import InterfacingOptions, apply_interfacing

__all__ = [
    "ArchitectureMapper",
    "ComponentInstance",
    "InterfacingOptions",
    "MapperOptions",
    "MappingResult",
    "MappingStatistics",
    "Netlist",
    "apply_interfacing",
    "map_design",
    "map_sfg",
    "map_sfg_greedy",
]

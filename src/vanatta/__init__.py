"""Simulator for retrodirective reflective surfaces on FMCW radar links.

Modules:
    geometry    layouts, builders, validator, layout file I/O
    emfield     round-trip responses, patterns, plate baseline, scaling
    modulation  switch configurations and on-off-keyed schedules
    fmcw        beat synthesis, range/Doppler processing, detection
    link        end-to-end modulated frames and bit decoding
    kernels     pair-path phasor sum, closed-form beat kernel
    cli         command-line front end

The public names below load their module on first use, so a command that
never touches the FMCW chain never imports ``fmcw`` or ``link``.
"""

from importlib import import_module

# Each public name of the package, by the module that defines it.
_EXPORTS = {
    "emfield": (
        "FieldPattern",
        "PlaneWave",
        "SwitchConfig",
        "far_field_amplitude",
        "field_pattern",
        "gain_over_plate",
        "magnitude_db",
        "plate_baseline_pattern",
        "plate_monostatic_amplitude",
        "range_extension",
        "response_matrix",
        "roundtrip_response",
        "scaling_sweep",
        "write_pattern_csv",
    ),
    "errors": (
        "ConfigurationError",
        "ConstraintError",
        "DecodingError",
        "DesignMismatchWarning",
        "SchedulingError",
        "SimulationError",
    ),
    "fmcw": (
        "BeatSignal",
        "ChirpParams",
        "Detection",
        "PlateReflector",
        "RangeDopplerMap",
        "RangeProfile",
        "SurfaceReflector",
        "Target",
        "bin_noise_sigma",
        "detect",
        "max_detection_range",
        "range_doppler",
        "range_profile",
        "synthesize_beat",
        "write_range_doppler_csv",
    ),
    "geometry": (
        "AntennaElement",
        "SurfaceLayout",
        "TransmissionLine",
        "ValidationReport",
        "build_concentric_surface",
        "build_linear_array",
        "load_layout",
        "save_layout",
        "validate_layout",
        "wavelength_of",
    ),
    "link": (
        "LinkResult",
        "LinkScenario",
        "decode_ook",
        "doppler_phase_drift",
        "ook_ber_trial",
        "run_link",
        "two_cluster_centers",
        "write_link_report",
        "write_per_chirp_csv",
    ),
    "modulation": (
        "BitFrame",
        "SwitchSchedule",
        "config_at",
        "constructive_config",
        "destructive_config",
        "encode_bits",
    ),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAZY)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

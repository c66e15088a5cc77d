"""wavelab: link-level waveform simulation over sparse time-varying channels.

Implements delay-Doppler alignment modulation (DDAM) with per-path MISO
beamforming, OFDM and OTFS baseline modems, the combined DDAM-OFDM and
DDAM-OTFS pipelines, and the PAPR / spectral-efficiency / BER / complexity
metrics used to compare them.
"""

__version__ = "0.1.0"

from .channel import (
    ArrayConfig,
    BeamFrame,
    Frame,
    MultipathChannel,
    PathParams,
    ScalarChannel,
    add_awgn,
    apply_channel,
    build_channel,
    channel_from_json,
    channel_to_json,
    fractional_delay_taps,
    sample_random_channel,
    steering_vector,
)
from .ofdm import (
    FeasibilityThresholds,
    FeasibleRegion,
    OfdmConfig,
    feasible_region,
    ofdm_demodulate,
    ofdm_equalize_one_tap,
    ofdm_modulate,
)
from .otfs import (
    OtfsConfig,
    banded_gram,
    dd_effective_matrix,
    mmse_equalize_dd,
    otfs_demodulate_isfft,
    otfs_demodulate_zak,
    otfs_modulate_isfft,
    otfs_modulate_zak,
    time_matrix,
)
from .ddam import (
    AlignmentWindow,
    BeamformerSet,
    DdamFrameConfig,
    EquivalentChannel,
    PathStateInfo,
    PsiPerturbation,
    build_compensation_plan,
    ddam_demodulate,
    ddam_modulate,
    equivalent_channel,
    estimate_gain,
    path_beamformers,
    psi_from_channel,
)
from .combos import (
    ddam_ofdm_link,
    ddam_ofdm_receive,
    ddam_otfs_effective_matrix,
    ddam_otfs_receive,
    ddam_otfs_transmit,
)
from .metrics import (
    ComplexityParams,
    PaprCcdf,
    ber,
    complexity_model,
    counting,
    measured_complexity,
    papr_ccdf,
    papr_db,
    qfunc,
    se_overhead,
)
from .modulation import qpsk_demodulate, qpsk_modulate, qpsk_slice, random_qpsk

"""QC-LDPC convolutional codes: construction, stream decoding, hardware model."""

from .arch import (
    ArchParams,
    ArchReport,
    FPGA_REFERENCE,
    PRESETS,
    RamTrace,
    Schedule,
    derive_report,
    proposed_conventional_ratio,
    ram_trace_example,
    schedule_conventional,
    schedule_multi,
    schedule_single,
)
from .channel import (
    ChannelConfig,
    derive_seed,
    frame_llrs,
    noise_sigma,
    to_llr,
    transmit_all_zero,
)
from .construction import (
    BaseMatrix,
    ConstructionError,
    ConvCode,
    SparseBinaryMatrix,
    demo_base,
    demo_base_names,
    expand_base,
    girth,
    split_and_unwrap,
    syndrome_check,
    window_matrix,
)
from .decoder import (
    VARIANT_FLOAT,
    VARIANT_QSPA,
    BlockDecoder,
    DecoderConfig,
    StreamDecoder,
    StreamResult,
    app_decide,
    cnp_float,
    cnp_qspa,
    decode_stream,
    vnp,
)
from .harness import (
    BerPoint,
    ExperimentConfig,
    run_ber,
    run_block_baseline,
    write_csv,
)
from .quantization import (
    PairLut,
    Quantizer,
    build_pair_lut,
    dump_lut,
    from_twos_complement,
    parse_lut,
    to_twos_complement,
)

__version__ = "0.1.0"

"""Reference NumPy implementation of the E2E ASR Transformer.

This is the *functional golden model*: a 12-encoder / 6-decoder
attention encoder-decoder with d_model=512, 8 heads and d_ff=2048
(Section 3.4 of the paper).  The hardware simulator in :mod:`repro.hw`
must agree numerically with this implementation.

Every public name resolves from its defining module on first access
(:func:`repro._lazy.lazy_names`), so importing the package loads
only the modules a caller reads.
"""

from repro._lazy import lazy_names

_EXPORTS = {
    "repro.model.batched": ("BatchedTransformer",),
    "repro.model.incremental": ("IncrementalDecoder",),
    "repro.model.attention": (
        "attention_head", "multi_head_attention", "scaled_dot_product_attention",
    ),
    "repro.model.decoder": ("decoder_layer",),
    "repro.model.encoder": ("encoder_layer",),
    "repro.model.ffn": ("feed_forward",),
    "repro.model.flops": (
        "decoder_layer_flops", "encoder_layer_flops", "matmul_flops",
        "transformer_flops",
    ),
    "repro.model.layernorm": ("add_norm", "layer_norm"),
    "repro.model.masks": ("causal_mask", "combine_masks", "padding_mask"),
    "repro.model.ops": ("linear", "log_softmax", "relu", "softmax"),
    "repro.model.params": (
        "AttentionParams", "DecoderLayerParams", "EncoderLayerParams",
        "FeedForwardParams", "LayerNormParams", "TransformerParams",
        "init_transformer_params", "load_params", "save_params",
    ),
    "repro.model.transformer": ("Transformer",),
}

__all__, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)

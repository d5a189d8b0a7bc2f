"""The full encoder-decoder Transformer (golden functional model)."""

from __future__ import annotations

import numpy as np

from repro.model.decoder import decoder_layer
from repro.model.encoder import encoder_layer
from repro.model.ops import linear, log_softmax
from repro.model.params import TransformerParams, init_transformer_params


class Transformer:
    """Reference inference engine for the 12-encoder / 6-decoder model.

    The hardware simulator (:mod:`repro.hw`) re-implements exactly these
    computations with the paper's tiling/striping dataflow; the two must
    agree numerically.
    """

    def __init__(self, params: TransformerParams | None = None) -> None:
        self.params = params or init_transformer_params()

    @property
    def config(self):
        return self.params.config

    def encode(
        self, features: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Run the encoder stack over an (s, d_model) feature sequence."""
        x = np.asarray(features)
        if x.ndim != 2 or x.shape[1] != self.config.d_model or not x.shape[0]:
            raise ValueError(
                f"encoder input must be (s, {self.config.d_model}) with s >= 1; "
                f"got {x.shape}"
            )
        for layer in self.params.encoders:
            x = encoder_layer(x, layer, mask=mask)
        return x

    def embed_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Look up decoder-input token embeddings, scaled by sqrt(d)."""
        t = np.asarray(tokens, dtype=np.int64)
        if t.ndim != 1:
            raise ValueError("tokens must be a 1-D index array")
        if t.size and (t.min() < 0 or t.max() >= self.config.vocab_size):
            raise ValueError("token index out of vocabulary range")
        return self.params.embedding[t] * np.sqrt(float(self.config.d_model))

    def decode(
        self,
        tokens: np.ndarray,
        memory: np.ndarray,
        memory_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the decoder stack; returns (t, d_model) hidden states."""
        x = self.embed_tokens(tokens)
        for layer in self.params.decoders:
            x = decoder_layer(x, memory, layer, memory_mask=memory_mask)
        return x

    def output_logits(self, decoder_out: np.ndarray) -> np.ndarray:
        """Project decoder hidden states to vocabulary logits."""
        return linear(decoder_out, self.params.output_w, self.params.output_b)

    def forward(
        self,
        features: np.ndarray,
        tokens: np.ndarray,
        memory_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full teacher-forced pass: features + tokens -> (t, vocab) logits."""
        memory = self.encode(features)
        hidden = self.decode(tokens, memory, memory_mask=memory_mask)
        return self.output_logits(hidden)

    def log_probs(self, features: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Log posterior over the vocabulary at each decoder position."""
        return log_softmax(self.forward(features, tokens), axis=-1)

"""Exact computer algebra for Neveu-Schwarz super Virasoro singular vectors,
their free-field images, and the p = 2 Jack/Uglov family of symmetric
functions."""

__version__ = "0.1.0"

from .fock import screening_r1, t1_annihilation_check, verify_conjecture, verma_to_lambda
from .svir import gram_matrix, hw_data, kac_det_check, pns, singular_vector
from .symfunc import SymFunc, convert, multiply, partitions
from .uglov import jack, macdonald, uglov2_orth, uglov_limit_check
from .vertexops import eps0, eps1, eta_hbar_check

__all__ = [
    "SymFunc", "convert", "multiply", "partitions",
    "macdonald", "jack", "uglov2_orth", "uglov_limit_check",
    "eps0", "eps1", "eta_hbar_check", "t1_annihilation_check",
    "hw_data", "gram_matrix", "kac_det_check", "pns", "singular_vector",
    "verma_to_lambda", "screening_r1", "verify_conjecture",
]

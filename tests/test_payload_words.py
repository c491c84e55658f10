"""Unit tests for CONGEST payload word costing (every branch)."""

import networkx as nx
import numpy as np
import pytest

from repro.congest import CongestViolation, Network, payload_words
from repro.congest.network import DEFAULT_WORD_BITS, _payload_words


class TestAtomicCosts:
    def test_none_is_free(self):
        assert payload_words(None) == 0

    def test_small_int_is_one_word(self):
        assert payload_words(0) == 1
        assert payload_words(7) == 1

    def test_bool_is_one_word(self):
        assert payload_words(True) == 1
        assert payload_words(False) == 1

    def test_big_int_charged_by_bit_length(self):
        big = 1 << 4095  # a 4096-bit integer
        assert payload_words(big, word_bits=32) == 128
        assert payload_words(big, word_bits=8) == 512

    def test_negative_int_charged_by_magnitude(self):
        assert payload_words(-(1 << 63), word_bits=32) == 2

    def test_float_is_one_word(self):
        assert payload_words(3.25) == 1

    def test_string_charged_by_length(self):
        assert payload_words("x" * 64, word_bits=32) == 2
        assert payload_words("", word_bits=32) == 1  # non-None floor
        # The acceptance case: a 10k-character string busts the budget.
        assert payload_words("x" * 10000) > 8
        assert _payload_words("x" * 10000) > 8  # historical alias

    def test_bytes_charged_by_bits(self):
        assert payload_words(b"abcd", word_bits=32) == 1
        assert payload_words(b"x" * 100, word_bits=32) == 25


class TestContainerCosts:
    def test_tuple_sums_elements(self):
        assert payload_words((1, 2, 3)) == 3
        assert payload_words(()) == 1  # non-None floor

    def test_nested_tuple(self):
        assert payload_words(((1, 2), (3, (4, 5)))) == 5

    def test_list_and_set(self):
        assert payload_words([1, 2]) == 2
        assert payload_words({1, 2, 3}) == 3
        assert payload_words(frozenset((1, 2))) == 2

    def test_dict_sums_keys_and_values(self):
        assert payload_words({1: 2, 3: 4}) == 4
        big = 1 << 255
        assert payload_words({1: big}, word_bits=32) == 1 + 8

    def test_none_elements_are_free_but_floor_holds(self):
        assert payload_words((None, None, None)) == 1

    def test_unknown_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(CongestViolation):
            payload_words(Opaque())
        with pytest.raises(CongestViolation):
            payload_words((1, object()))


class TestNetworkWordSize:
    def test_word_bits_derived_from_n(self):
        assert Network(nx.path_graph(2)).word_bits == 1
        assert Network(nx.path_graph(100)).word_bits == 7
        assert Network(nx.path_graph(1024)).word_bits == 10

    def test_word_bits_override(self):
        assert Network(nx.path_graph(4), word_bits=16).word_bits == 16

    def test_default_standalone_word_bits(self):
        assert DEFAULT_WORD_BITS == 32

    def test_oversized_string_triggers_violation(self):
        g = nx.path_graph(4)

        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {1: "x" * 10000}
            return None

        with pytest.raises(CongestViolation):
            Network(g).run(lambda ctx: None, on_round, max_rounds=3)

    def test_big_int_triggers_violation(self):
        g = nx.path_graph(4)

        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {1: (1 << 4096,)}
            return None

        with pytest.raises(CongestViolation):
            Network(g).run(lambda ctx: None, on_round, max_rounds=3)

    def test_unknown_payload_type_triggers_violation(self):
        g = nx.path_graph(4)

        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {1: object()}
            return None

        with pytest.raises(CongestViolation):
            Network(g).run(lambda ctx: None, on_round, max_rounds=3)

    def test_in_budget_message_passes(self):
        g = nx.path_graph(4)

        def on_round(ctx, inbox):
            if ctx.node == 0 and not ctx.state.get("sent"):
                ctx.state["sent"] = True
                ctx.halt()
                return {1: (3, "ab", 2.5)}
            if inbox or ctx.node != 1:
                ctx.halt()
            return None

        result = Network(g).run(lambda ctx: None, on_round, max_rounds=5)
        assert result.rounds == 2
        assert result.max_words == 3  # one word each: int, short str, float


class TestNumpyScalarCosts:
    """Numpy scalars cost exactly their Python twins.

    A handler that computes with numpy and sends an ``np.int64`` in a
    payload used to crash the run with a type violation; the model cost
    of the value does not depend on which scalar type carries it.
    """

    def test_numpy_int_matches_python_int(self):
        assert payload_words(np.int64(5)) == payload_words(5)
        assert payload_words(np.int32(0)) == payload_words(0)
        assert payload_words(np.uint64(1 << 40), word_bits=8) == payload_words(
            1 << 40, word_bits=8
        )
        assert payload_words(np.int64(-(1 << 63) + 1), word_bits=32) == 2

    def test_numpy_float_matches_python_float(self):
        assert payload_words(np.float64(3.25)) == payload_words(3.25) == 1
        assert payload_words(np.float32(0.0)) == 1

    def test_numpy_bool_matches_python_bool(self):
        assert payload_words(np.bool_(True)) == payload_words(True) == 1
        assert payload_words(np.bool_(False)) == 1

    def test_zero_d_array_matches_python_counterpart(self):
        assert payload_words(np.array(7)) == payload_words(7)
        assert payload_words(np.array(2.5)) == 1
        big = np.array(1 << 60, dtype=np.int64)
        assert payload_words(big, word_bits=8) == payload_words(1 << 60, word_bits=8)

    def test_numpy_scalars_inside_containers(self):
        assert payload_words((np.int64(1), np.int64(2))) == payload_words((1, 2))
        assert payload_words({np.int64(1): np.float64(2.0)}) == payload_words(
            {1: 2.0}
        )

    def test_one_d_array_still_raises(self):
        with pytest.raises(CongestViolation):
            payload_words(np.array([1, 2, 3]))

    def test_numpy_payload_rides_through_a_run(self):
        g = nx.path_graph(3)

        def on_round(ctx, inbox):
            if ctx.node == 0 and not ctx.state.get("sent"):
                ctx.state["sent"] = True
                ctx.halt()
                return {1: (np.int64(5),)}
            ctx.halt()
            return None

        result = Network(g).run(lambda ctx: None, on_round, max_rounds=4)
        # Same cost as the plain-int payload under this network's word
        # width (2-bit words on a 3-node network: 5 needs 2 of them).
        assert result.max_words == payload_words((5,), Network(g).word_bits)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qadconv import reference
from qadconv.errors import CodecRangeError, OracleDomainError
from qadconv.fixedpoint import (
    ACTIVATIONS,
    FixedPointCodec,
    FunctionOracle,
    abs_recovery_oracle,
    activation_oracle,
    arccos_oracle,
    real_recovery_oracle,
)
from textbook import textbook_table


def test_encode_known_pattern():
    codec = FixedPointCodec(4)
    assert codec.encode(0.625) == 0b1010
    assert codec.encode(0.0) == 0
    assert codec.decode(0b1010) == 0.625


def test_signed_encode_two_complement():
    codec = FixedPointCodec(4, signed=True)
    pattern = codec.encode(-0.5)
    assert pattern == (-8) % 32
    assert codec.decode(pattern) == -0.5
    assert codec.decode(codec.encode(-1.0)) == -1.0


def test_round_half_up():
    codec = FixedPointCodec(3)
    # 0.0625 is exactly half an LSB; half-up sends it to 1/8
    assert codec.encode(0.0625) == 1
    assert codec.encode(0.0624) == 0
    signed = FixedPointCodec(3, signed=True)
    assert signed.decode(signed.encode(-0.0625)) == 0.0


def test_clamp_window():
    codec = FixedPointCodec(4)
    assert codec.decode(codec.encode(1.0)) == codec.vmax
    with pytest.raises(CodecRangeError):
        codec.encode(1.0 + 2.0**-3)
    signed = FixedPointCodec(4, signed=True)
    assert signed.decode(signed.encode(-1.05)) == -1.0
    with pytest.raises(CodecRangeError):
        signed.encode(-1.2)


def test_roundtrip_exact_on_representable():
    for signed in (False, True):
        codec = FixedPointCodec(5, signed=signed)
        for v in codec.values():
            assert codec.decode(codec.encode(v)) == v


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=10))
def test_quantization_bound(frac, m):
    codec = FixedPointCodec(m)
    v = frac * codec.vmax
    err = abs(codec.decode(codec.encode(v)) - v)
    assert err <= 2.0 ** -(m + 1) + 1e-12


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=12), signed=st.booleans(), data=st.data())
def test_array_encode_matches_the_reference_quantizer(m, signed, data):
    codec = FixedPointCodec(m, signed=signed)
    lo, hi, lsb = codec.vmin, codec.vmax, 2.0**-m
    vals = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40)))
    quantize = reference.quantize_signed if signed else reference.quantize_unsigned
    codes = codec.encode(vals)
    assert codes.dtype == np.int64 and codes.shape == vals.shape
    assert codec.decode(codes).tobytes() == quantize(vals, m).tobytes()
    assert [codec.encode(v) for v in vals] == codes.tolist()
    # up to one LSB past either end clamps to that end
    edges = np.array([lo - lsb, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0), hi + lsb])
    assert codec.decode(codec.encode(edges)).tolist() == [lo, lo, hi, hi]
    # the first value further out, or not finite, is refused and named
    bad = data.draw(st.sampled_from([math.nextafter(lo - lsb, -2.0),
                                     math.nextafter(hi + lsb, 2.0), math.nan, math.inf, -math.inf]))
    at = data.draw(st.integers(min_value=0, max_value=vals.size))
    with pytest.raises(CodecRangeError) as exc:
        codec.encode(np.append(np.insert(vals, at, bad), hi + 7.0))
    named = f"{bad!r} outside" if math.isfinite(bad) else f"cannot encode {bad!r}"
    assert str(exc.value).startswith(named)


def _assert_built_like_the_textbook(name, fn, in_codecs, out_codec):
    """The oracle's table equals the per-input loop byte for byte, or both
    refuse the same first input; the oracle adds the codec's reason."""
    try:
        want = textbook_table(name, fn, in_codecs, out_codec)
    except OracleDomainError as exc:
        with pytest.raises(OracleDomainError) as got:
            FunctionOracle.build(name, fn, in_codecs, out_codec)
        assert str(got.value).startswith(f"{exc}: ")
        assert isinstance(got.value.__cause__, CodecRangeError)
        return
    got = FunctionOracle.build(name, fn, in_codecs, out_codec).table
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("in_signed,out_signed",
                         [(False, False), (False, True), (True, False), (True, True)])
@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_every_activation_table_matches_the_per_input_loop(name, in_signed, out_signed):
    fn, arity = ACTIVATIONS[name]
    for m in range(1, 9):
        in_codecs = (FixedPointCodec(m, signed=in_signed),) * arity
        _assert_built_like_the_textbook(name, fn, in_codecs,
                                        FixedPointCodec(m, signed=out_signed))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-1.0, 1.0), arity=st.integers(1, 2),
       m=st.integers(1, 8), in_signed=st.booleans(), out_signed=st.booleans())
def test_user_callable_tables_match_the_per_input_loop(a, b, arity, m, in_signed, out_signed):
    m = min(m, 5) if arity == 2 else m

    def fn(*xs):
        return a * math.sin(sum(xs)) + b

    _assert_built_like_the_textbook("user", fn, (FixedPointCodec(m, signed=in_signed),) * arity,
                                    FixedPointCodec(m, signed=out_signed))


def test_values_cover_range():
    codec = FixedPointCodec(2, signed=True)
    got = sorted(codec.values().tolist())
    assert got == [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]


def test_oracle_build_and_lookup():
    codec = FixedPointCodec(3)
    orc = FunctionOracle.build("half", lambda x: x / 2, (codec,), codec)
    for code in range(8):
        v = codec.decode(code)
        assert codec.decode(int(orc.table[code])) == pytest.approx(
            reference.quantize_unsigned(v / 2, 3)
        )


def test_oracle_rejects_out_of_window_outputs():
    codec = FixedPointCodec(3)
    with pytest.raises(OracleDomainError):
        FunctionOracle.build("double", lambda x: 2 * x, (codec,), codec)


def test_arity_two_packs_first_input_low():
    codec = FixedPointCodec(2)
    orc = FunctionOracle.build(
        "first", lambda x, y: x, (codec, codec), codec
    )
    # packed = x_code | y_code << 2; output must follow x only
    for x in range(4):
        for y in range(4):
            assert orc.table[x | (y << 2)] == x


def test_arccos_oracle_endpoints():
    orc = arccos_oracle(4)
    assert orc.fn(0.0) == pytest.approx(1.0)
    assert orc.fn(math.sqrt(2) / 2) == pytest.approx(0.5)
    # table clamps phi=1 to the top code
    assert int(orc.table[0]) == 15


def test_arccos_composition_recovers_input():
    m = 6
    orc = arccos_oracle(m)
    codec = FixedPointCodec(m)
    worst = 0.0
    for code in range(1 << m):
        d = codec.decode(code)
        phi = codec.decode(int(orc.table[code]))
        worst = max(worst, abs(math.cos(math.pi * phi / 2) - d))
    assert worst <= 2 * 2.0**-m


def test_recovery_tables_are_branch_symmetric():
    for orc in (abs_recovery_oracle(3, guard_bits=2), real_recovery_oracle(3, guard_bits=2)):
        t = orc.in_codecs[0].m
        for b in range(1, 1 << t):
            assert orc.table[b] == orc.table[(1 << t) - b]


def test_recovery_tables_match_reference():
    for m, g, signed, orc in (
        (5, 3, False, abs_recovery_oracle(5, guard_bits=3)),
        (5, 3, True, real_recovery_oracle(5, guard_bits=3)),
    ):
        want = reference.recovery_decoded_table(m + g, m, signed)
        got = orc.decoded_outputs()
        np.testing.assert_allclose(got, want)


def test_abs_recovery_table_bias_near_zero():
    # the dyadic bin theta=1/4 evaluates half a cell high; the square root
    # blows that up to ~0.11 at t=8. Documented behavior, not a bug.
    orc = abs_recovery_oracle(5, guard_bits=3)
    code = int(orc.table[(1 << 8) // 4])
    assert orc.out_codec.decode(code) == 0.125


def test_activation_registry():
    assert set(ACTIVATIONS) == {"identity", "square", "tanh", "relu-capped", "product"}
    orc = activation_oracle("tanh", 6)
    assert orc.fn(0.0) == pytest.approx(0.0)
    assert orc.fn(0.6) == pytest.approx(math.tanh(0.6))
    sq = activation_oracle("square", 5, in_signed=True)
    assert sq.fn(-0.5) == pytest.approx(0.25)
    prod = activation_oracle("product", 3)
    assert prod.arity == 2
    assert prod.fn(0.5, 0.5) == pytest.approx(0.25)


def test_activation_accepts_callable():
    orc = activation_oracle(lambda x: x / 4, 4)
    assert orc.name in ("<lambda>", "user")
    assert orc.fn(0.5) == pytest.approx(0.125)


def test_unknown_activation():
    with pytest.raises(OracleDomainError):
        activation_oracle("sigmoid", 4)

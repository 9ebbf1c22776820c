import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpe import fields
from hpe.errors import InvalidDegree, InvalidOrder, NotIrreducible
from hpe.fields import (MAX_Q, BaseField, base_field, build_extension,
                        parse_descriptor, prime_power_split)
from hpe.mvpoly import upoly

from oracles import colmasks_oracle
from test_field_backends import oracle_mul


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(4) == (2, 2)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(256) == (2, 8)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(InvalidOrder):
            prime_power_split(bad)


def test_base_field_rejects_bad_orders():
    with pytest.raises(InvalidOrder):
        base_field(6)
    with pytest.raises(InvalidOrder):
        base_field(2 * MAX_Q)


def test_gf4_known_products():
    # GF(4) with modulus x^2 + x + 1: elements are bit pairs c0 + 2*c1.
    f = base_field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3 and f.inv(3) == 2


def test_gf8_and_gf9_known_products():
    # GF(8) uses x^3 + x + 1, the least irreducible cubic over F_2.
    f8 = base_field(8)
    assert f8.mul(4, 2) == 3
    # GF(9) uses x^2 + 1 over F_3; alpha^2 = -1 = 2.
    f9 = base_field(9)
    assert f9.mul(3, 3) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_base_field_axioms(q):
    f = base_field(q)
    els = list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_characteristic_two_addition_is_xor():
    f = base_field(8)
    for a in range(8):
        for b in range(8):
            assert f.add(a, b) == a ^ b


def test_characteristic_sums_to_zero():
    for q in (3, 9, 5, 25):
        f = base_field(q)
        for a in range(q):
            acc = 0
            for _ in range(f.p):
                acc = f.add(acc, a)
            assert acc == 0


def test_base_field_tables_match_scalar_ops():
    for q in (4, 5, 9):
        f = base_field(q)
        add, mul = f.add_table, f.mul_table
        for a in range(q):
            for b in range(q):
                assert add[a, b] == f.add(a, b)
                assert mul[a, b] == f.mul(a, b)
        for a in range(1, q):
            assert f.mul(a, int(f.inv_table[a])) == 1
        for a in range(q):
            assert f.add(a, int(f.neg_table[a])) == 0


# SHA-256 over the add, sub, mul, neg, inv and power tables and the repr of
# modulus_p of BaseField(q), for every prime power q <= MAX_Q, recorded when
# the tables were still built by F_p polynomial multiplication and
# remainder, and the modulus by trial division.
BASE_FIELD_DIGESTS = {
    2: "83d5ce02521d3b3c9475f5762037db979a0765cc072387b34940e59b46057ba2",
    3: "efd1b13828d43cc7e13290cb6f2c6b4850b0aa7a8c6bd85bcd9e806d4509c351",
    4: "7e316c0de92d99d310ec89c2ab03d25e7e831df50038ef1b803d8968170d8a74",
    5: "86183a9ac3cb5c83cd26e8137b67d5719a054f41ae9e6f6a0b790ca0345eda34",
    7: "e5af5b247a7e427c6f8bdc3270abaa898befe66955b7f5c9fbffb77a1aed62cc",
    8: "c94386524d6c1d6b2dc14a3c0bed13afc60ccba6a07fc420324c17af5506f797",
    9: "e6ba797e9c335fb5c4722d4d0b4186570661439a8f4e546ebcec2f6c9934fbc5",
    11: "1bb19d84aac002c963a5e8e8ce0c2d340d1443e802ce64700bd7e0899eeab03e",
    13: "44ee9e364ee6797019c76a9cab44facff4b90bd24f5993a9a86c9d9267a8244b",
    16: "bc3622531c291daa3bc0737eca976cc41d26844bb641bce1b2e5b6e7d0c2f8b5",
    17: "bfd2e10dc3faee02213dee378d1a2a07a33130b604a4be90523a4994d914be24",
    19: "139dc893b95b84cad967096e86d9464b04957b0b05127f91f03dcd56b75a6611",
    23: "2a34b19748750068ad0c4a7eece5d785b7aae4c4fa1a8493a0568b968ef46f45",
    25: "5c69147fcb200b432781a36531c321968e5a0b2072feac31614eea409f7b1204",
    27: "6b666a76325ae25b5fd7c9f44bbab8a81e6e30b12c052ebbb7362f87816cfa4b",
    29: "2678d046fea80e24cf136c348cc0b8df06e19a51917470d402888b771787709c",
    31: "bdf276101db072d1a64fa47274fdca1f6537089a02c33698c3ce3161b641daa5",
    32: "75f74c09d5b4f939b256ddda09fb14d65badcb5b25f557e5b8f3878e510fc8e4",
    37: "9f47bd4b50f6e73f5dc2ce6edd996a5740c2b4859fe05ae482af0d7247f0a7ed",
    41: "5912099f928c4d86330566343c3c7974baa27566d9476d4b9ab99c24065c09b0",
    43: "8c124b320c038084fe9d76cfa2e4b3a3a048d1d5709bc1db6783aa9b5a99af81",
    47: "07264e4df0c2525bec0410cfda2efaaf087ac6f2fe969680f2566f03d829570f",
    49: "611fdd746776875cedcf69d29161737077eaae7582a8d063e3283da583862769",
    53: "3e07ec4d4e5b54453f6e66d1af61b721b95c758d203dae1cbf40abbbed79f49c",
    59: "04f2e05ea54e4e83d61de7a5f5179ac4e31064e55b84f951bb9de30ff71dda84",
    61: "77c89f34acfba8b9ce89774eb30c51fcddbe83412b2a64389d943dd885e1ac5a",
    64: "971b8770b61e2a59da4b0efe66022de10cf0bc2975ea82e0cfbceac9d41b2a76",
    67: "e690de78922e312ac01a273eb9431cec19f959a4127de7c5b622e10d64a7a1e5",
    71: "d886ccc1ddd3df12bccb58a4476e74dfdba6fb0140b06ce323f79b294817c058",
    73: "fe42fe5cb48b29216cf052716d4333684de0abef74277f75a2fc33a9cb3562b3",
    79: "934daa92be073073be9e0cfbabc484889a4b6c489eea81c1e8e157c061e3afd6",
    81: "2a981c92ad0b9f01dc755278672fd228da558cf2c456e0e48be430b0e83c7067",
    83: "c44f621e01a95383040d109d5a6f5036940ef9cf4d566cfcc78831f89b9fc526",
    89: "e1176ed6da2c6e85306774ff0735ba0e3f35f6ec2578bc166caab35ce200d3e5",
    97: "789b9961e46afb368fd0a7ac9ffe9ba3fcb7bd3e0cf724123c0f6ed890566271",
    101: "74456bc627a2443b279b193346f137fa429ed6077489c378aa6c57865a139c36",
    103: "98b8eacb4568744c662097ce41ba639cb62f5a2682634e80417a4f799ac41450",
    107: "38438adc1d1a32128bc16329664ef933505c23c46d5937038b8b84a7794c30d2",
    109: "ca70cc545fa6fb45895a1c3c1e547b9658a9d3830b5c505ab1b874274142dbc9",
    113: "a52e9cc096a92a543506c37087f1c90255a33377b1672d14647a022a244e23b0",
    121: "6a8d400a0c73c5e58ce04c21a3d6eb81bad58be29136ce786a82ac1bff1479ed",
    125: "58b307271ee317fb4960c35040b1c48e1daf35f7189250b2874790c53f6934a2",
    127: "a387bbb0769cc57ec992eb27b31cbaec184d8290825b8a5f5a996f2ed353677c",
    128: "fd09be05a853b918e5f3846fa9c3d909ea67eccc00b05ca7667c5bf376b44488",
    131: "2a470a21e9360829720e131bba58e4b5b3b473e596226c27d651b21546429f03",
    137: "0f673566ab2724644b33a11eddd1d7a92b56238cf304f580679bfb39d4880f9e",
    139: "0b8e1d6c5fd2bafb73bc7c524583a3418b5b5fb8cebb3266393212d2481f10c0",
    149: "7b92d76f63c9b2802dc664ee525309303ecdd64065ad5ce3078425ae8f619882",
    151: "57ebdd3802b79cf76736674301a5f1f049d0b033054cfce108660f04fb0f40f7",
    157: "d1c82559339acf8582bfbdfcaf17f5b743274bfe7445f418cf657760b912241a",
    163: "c9075c2981fbc40cd6416345870479df84e021e09f98c5a6f76ac33242dfba91",
    167: "ca052c485c0e66ab03ac6fc89c8f5f24d0411b5bc46501675f09d783a9d8ae85",
    169: "74188f4e9f1d2d575a5241e40f04fcbfbfc199c44087cccbf8760ebb8ce68c67",
    173: "b347b2babcb3b32bbac2a9bc4dc0a5be8a2943e53db16045a8d2b374deaddc5e",
    179: "9967da7480adff45deab9fcbedc68e8f8a4a106b653ee1bb9dc1fa7723c60e62",
    181: "c867737a15f1180baeb58e9bf6a2521a4d1e816965513aca62e8f484e5dfa054",
    191: "57370c3512ee7b65957f2a14949d6150442f6c96d72c69607dce6937945ba283",
    193: "773c985e90d260dd271ddc6893021f77f5a2fc856798295bedd56300a4c3479e",
    197: "85fa8a25cec6086d056a47f4ba955981752002a47d677015cfc4f6b0fe50b548",
    199: "12d1e73cddec248bf803dfe3c16eb1f6284dd6407873be3172228c080d3837b3",
    211: "1cff66c9551e232c8b5dd5478e0a5b454fdccb66d88a153da676104a234e9460",
    223: "d90c1139055b3c40ba06558400a16d08cfe6992bf291fba01ca6e232ed492656",
    227: "465848bf911dea8cd3cfa6a6a54ed26fbe8b58e3cfb829ef39e576bfbc146190",
    229: "70c689f6870254eeb0ac45e47cb61264c6fa9b86dc679cb370bdc31e8b1c1030",
    233: "e4e7612d48fe18afb17e81636119ec2616dc5a110d2850c4a3e6644d1ea0a820",
    239: "af1ccfd6cdb8bf12bb8cfbeacba2b7a26b8f3359723db9d5c25eadacb8b254d2",
    241: "43c6f71bb6e6b9479776f7dcc13ab4b40bc5436a4ec5c507b7cc8e13ec925083",
    243: "1938778926a7241075c8c5f4ea25b64566d3d365b3759a281ffdcc48149a596f",
    251: "4beec684c1f321c9c90493a8e91fab9f17d9424ae8a9315d277da197d35c9284",
    256: "de83658c45e02db6d6daf648f99853063e1bf7c4a541a615786f9d534333f74a",
}


def _power_table(f):
    """The q x q table of a^e for 0 <= e < q, part of the digests below."""
    pt = np.zeros((f.q, f.q), dtype=np.uint8)
    pt[:, 0] = 1
    for e in range(1, f.q):
        pt[:, e] = f.mul_table[pt[:, e - 1], np.arange(f.q)]
    return pt


def test_base_field_tables_pinned():
    orders = []
    for q in range(2, MAX_Q + 1):
        try:
            prime_power_split(q)
        except InvalidOrder:
            continue
        orders.append(q)
    assert sorted(BASE_FIELD_DIGESTS) == orders
    wrong = []
    for q, want in BASE_FIELD_DIGESTS.items():
        f = BaseField(q)
        h = hashlib.sha256()
        for t in (f.add_table, f.sub_table, f.mul_table, f.neg_table,
                  f.inv_table, _power_table(f)):
            h.update(t.tobytes())
        h.update(repr(f.modulus_p).encode())
        if h.hexdigest() != want:
            wrong.append(q)
    assert wrong == []


def _naive_irreducible(q, coeffs):
    # Trial division by every lower-degree monic polynomial.
    f = base_field(q)
    n = len(coeffs) - 1
    for d in range(1, n):
        for packed in range(q ** d):
            div = [(packed // q ** i) % q for i in range(d)] + [1]
            _, r = upoly.divmod_poly(f, list(coeffs), div)
            if not r:
                return False
    return True


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (4, 2), (2, 6)])
def test_modulus_is_least_irreducible(q, n):
    field = build_extension(q, n)
    coeffs = field.modulus
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    assert _naive_irreducible(q, coeffs)
    # Everything lexicographically below it (same degree, monic) must factor.
    packed = sum(int(c) * q ** i for i, c in enumerate(coeffs[:-1]))
    for lower in range(packed):
        cand = [(lower // q ** i) % q for i in range(n)] + [1]
        assert not _naive_irreducible(q, cand)


def test_extension_axioms_sampled():
    rng = random.Random(7)
    for q, n in ((2, 12), (3, 4), (4, 3)):
        field = build_extension(q, n)
        for _ in range(60):
            a, b, c = (rng.randrange(field.order) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            if a:
                assert field.mul(a, field.inv(a)) == 1
            assert field.add(a, field.neg(a)) == 0


def test_extension_multiplicative_order_small():
    field = build_extension(2, 6)
    for a in range(1, field.order):
        assert field.pow(a, field.order - 1) == 1


def test_coords_pack_round_trip():
    field = build_extension(3, 4)
    for a in range(field.order):
        assert field.from_coords(field.coords(a)) == a
    arr = np.arange(field.order, dtype=np.int64)
    coords = field.coords_array(arr)
    assert coords.shape == (field.order, 4)
    assert np.array_equal(field.pack_array(coords), arr)
    # At and below 2^64 packing is vectorized (shifts for q a power of two,
    # uint64 division otherwise); above it, it runs on Python ints.
    rng = random.Random(29)
    for q, n in ((2, 64), (4, 32), (3, 40), (2, 65), (3, 41)):
        field = build_extension(q, n)
        elems = [0, 1, field.order - 1] + [field.random(rng) for _ in range(20)]
        coords = field.coords_array(elems)
        assert coords.dtype == np.uint8 and coords.shape == (len(elems), n)
        assert [tuple(map(int, row)) for row in coords] == [field.coords(a) for a in elems]
        packed = field.pack_array(coords)
        assert packed.dtype == (np.uint64 if field.order <= 1 << 64 else object)
        assert [int(a) for a in packed] == elems
        assert [field.from_coords(row) for row in coords] == elems


def test_frobenius_is_q_power_map():
    rng = random.Random(11)
    for q, n in ((2, 12), (3, 5), (4, 4)):
        field = build_extension(q, n)
        for _ in range(40):
            a = rng.randrange(field.order)
            for k in range(n):
                assert field.frob(a, k) == field.pow(a, q ** k)


def test_frobenius_matrices_act_on_coords():
    field = build_extension(2, 10)
    mats = field.frobenius_matrices
    rng = random.Random(13)
    for _ in range(40):
        a = rng.randrange(field.order)
        va = np.array(field.coords(a), dtype=np.uint8)
        for k in range(field.n):
            # Row j of the matrix holds the image coordinates of basis_j.
            want = np.array(field.coords(field.frob(a, k)), dtype=np.uint8)
            got = (va.astype(np.int64) @ mats[k].astype(np.int64)) % field.p
            assert np.array_equal(got.astype(np.uint8), want)


def test_frobenius_additive():
    field = build_extension(3, 4)
    rng = random.Random(17)
    for _ in range(50):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        assert field.frob(field.add(a, b), 1) == field.add(
            field.frob(a, 1), field.frob(b, 1))


def test_mult_tensor_matches_mul():
    # Prime base: plain integer contraction mod p reproduces multiplication.
    for q, n in ((2, 8), (3, 3)):
        field = build_extension(q, n)
        tensor = field.tensor
        rng = random.Random(19)
        for _ in range(30):
            a, b = rng.randrange(field.order), rng.randrange(field.order)
            va = np.array(field.coords(a), dtype=np.int64)
            vb = np.array(field.coords(b), dtype=np.int64)
            # Layout is (in1, in2, out): T[j, k, i] a_j b_k = (ab)_i.
            prod = np.einsum("jki,j,k->i", tensor.astype(np.int64), va, vb) % field.p
            want = np.array(field.coords(field.mul(a, b)), dtype=np.int64)
            assert np.array_equal(prod, want)


def test_mult_tensor_matches_mul_composite_base():
    # GF(4) coordinates multiply through the base tables, not integers mod p.
    field = build_extension(4, 3)
    base, tensor = field.base, field.tensor
    rng = random.Random(19)
    for _ in range(30):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        va, vb = field.coords(a), field.coords(b)
        got = []
        for i in range(3):
            acc = 0
            for j in range(3):
                for k in range(3):
                    term = base.mul(int(tensor[j, k, i]), base.mul(va[j], vb[k]))
                    acc = base.add(acc, term)
            got.append(acc)
        assert tuple(got) == field.coords(field.mul(a, b))


def test_mul_many_pairwise():
    # Prime and composite q, every backend, and packing above 2^64.  On
    # "coords" fields mul is mul_many of one pair, so the upoly oracle
    # stands in for an independent multiply there.
    rng = random.Random(23)
    for q, n in ((2, 9), (4, 4), (3, 13), (9, 7), (2, 65)):
        field = build_extension(q, n)
        a = np.array([0, 1, field.order - 1] + [field.random(rng) for _ in range(40)])
        b = np.array([field.order - 1, 0, 1] + [field.random(rng) for _ in range(40)])
        got = field.mul_many(a, b)
        assert len(got) == len(a)
        for i in range(len(a)):
            assert int(got[i]) == field.mul(int(a[i]), int(b[i]))
            assert int(got[i]) == oracle_mul(field, int(a[i]), int(b[i]))


# log at r = 1, 2 and 3, clmul up to elements above 2^64, coords at q = 16
# and at odd p, and base fields at r = 1 and 2
SCALE_FIELDS = [build_extension(q, n) for q, n in
                [(2, 16), (4, 8), (8, 6), (2, 21), (2, 32), (2, 65), (16, 6), (3, 13)]]
SCALE_FIELDS += [base_field(q) for q in (2, 4, 9)]


@st.composite
def _scale_cases(draw):
    field = draw(st.sampled_from(SCALE_FIELDS))
    top = field.order - 1
    # 0, every digit q - 1, and every digit 1
    element = st.one_of(st.sampled_from([0, top, top // (field.q - 1)]), st.integers(0, top))
    return field, draw(element), draw(st.lists(element, max_size=12))


@example(case=(build_extension(2, 65), 0, [(1 << 65) - 1, 0, 1]))
@example(case=(build_extension(2, 65), (1 << 65) - 1, [(1 << 65) - 1, 0, 1 << 64]))
@example(case=(build_extension(3, 13), 3**13 - 1, [0, 3**13 - 1, (3**13 - 1) // 2]))
@settings(max_examples=150, deadline=None)
@given(case=_scale_cases())
def test_scale_is_mul_of_each_coefficient(case):
    # upoly multiplies a whole coefficient list by one scalar in one call;
    # each backend builds what a depends on (window, log, coordinates) once
    field, a, bs = case
    got = field.scale(a, bs)
    assert got == [field.mul(a, b) for b in bs]
    assert all(type(c) is int for c in got)
    if isinstance(field, fields.ExtensionField):
        assert got == [oracle_mul(field, a, b) for b in bs]


def test_scale_fields_cover_every_backend():
    extensions = [f for f in SCALE_FIELDS if isinstance(f, fields.ExtensionField)]
    assert {f.backend for f in extensions} == {"log", "clmul", "coords"}


def test_base_embedding_is_homomorphic():
    field = build_extension(4, 3)
    base = field.base
    for a in range(4):
        for b in range(4):
            ea = field.from_coords((a, 0, 0))
            eb = field.from_coords((b, 0, 0))
            assert field.mul(ea, eb) == field.from_coords((base.mul(a, b), 0, 0))
            assert field.add(ea, eb) == field.from_coords((base.add(a, b), 0, 0))


def test_modulus_irreducibility_at_working_sizes():
    # x^(q^n) = x must hold in the quotient while no proper power fixes x.
    for q, n in ((2, 16), (2, 24), (3, 5)):
        field = build_extension(q, n)
        x = field.from_coords((0, 1) + (0,) * (n - 2))
        acc = x
        for _ in range(n):
            acc = field.frob(acc, 1)
        assert acc == x
        for d in range(1, n):
            if n % d:
                continue
            acc = x
            for _ in range(d):
                acc = field.frob(acc, 1)
            assert acc != x


def test_descriptor_round_trip():
    field = build_extension(2, 16)
    again = parse_descriptor(field.descriptor())
    assert again.q == field.q and again.n == field.n
    assert again.modulus == field.modulus
    with pytest.raises(ValueError):
        parse_descriptor("G 2 1 4 1 1 0 0 1")
    with pytest.raises(ValueError):
        parse_descriptor("F 2 1 4 1 1 0 1")


def test_each_modulus_is_checked_once_per_process(monkeypatch):
    line = build_extension(2, 16).descriptor()
    field = parse_descriptor(line)
    calls = []
    monkeypatch.setattr(fields, "_is_irreducible",
                        lambda *args: calls.append(args) or True)
    assert parse_descriptor(line) is field
    assert calls == []
    monkeypatch.undo()
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has no root in F_2, so only the
    # distinct-degree test finds it reducible; nothing caches the failure
    for _ in range(2):
        with pytest.raises(NotIrreducible):
            build_extension(2, 4, (1, 0, 1, 0, 1))


def test_default_and_spelled_out_modulus_give_one_field():
    # keygen builds the field from (q, n), load_private from the key's field
    # line: one process must hold one field for both, whichever comes first
    line = build_extension(4, 8).descriptor()
    for first in ("default", "spelled out"):
        fields._extension.cache_clear()
        fields._checked_extension.cache_clear()
        if first == "default":
            field = build_extension(4, 8)
            assert parse_descriptor(line) is field
        else:
            field = parse_descriptor(line)
            assert build_extension(4, 8) is field


def test_random_sampling():
    field = build_extension(2, 8)
    rng = random.Random(29)
    seen = set()
    for _ in range(200):
        a = field.random_nonzero(rng)
        assert 0 < a < field.order
        seen.add(field.random(rng))
    assert len(seen) > 100


def test_elements_iterator_small():
    field = build_extension(2, 4)
    els = list(field.elements())
    assert els == list(range(16))


def test_build_extension_rejects_bad_degree():
    with pytest.raises(InvalidDegree):
        build_extension(2, 0)


@pytest.mark.parametrize("n", [32, 64])
def test_colmasks_match_the_bit_loop(n):
    # The clmul backend's Frobenius column masks, packed by one gf2.words
    # over every P(k), are the masks the per-bit loop builds.
    field = build_extension(2, n)
    assert field.backend == "clmul"
    assert field._colmasks == colmasks_oracle(field)

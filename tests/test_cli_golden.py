"""Golden CLI output: the README examples print these exact bytes, and each
exit code keeps its stderr prefix.  Only the timing varies between runs, so
text mode drops its last line, ``elapsed: N ms``, and JSON mode its last key,
``ms``; the lseries example sums to 100 primes instead of 1000, to stay fast."""

import re
import shlex

import pytest

from zetaval.cli import main

# (argv, text stdout without the elapsed line, JSON stdout without ms)
GOLDEN = [
    (
        'zeta --re 2 --im 0 --width 1e-12',
        'cmd: zeta\n'
        'params: re=2, im=0, width=1e-12, N=7, k=14, meets_target=True, precision=128\n'
        're in [1.644934066848226430103457612252150020464e+00, 1.644934066848226437729246453857096816556e+00]\n'
        'im in [-3.812894420802473398031141192901803979146e-18, 3.812894420802473398031141192901803979146e-18]\n'
        'remainder <= 3.82e-18\n'
        'certified: true\n',
        '{"cmd":"zeta","params":{"re":"2","im":"0","width":"1e-12","N":7,"k":14,"meets_target":true,"precision":128},"value":{"re":{"lo":"1.644934066848226430103457612252150020464e+00","hi":"1.644934066848226437729246453857096816556e+00"},"im":{"lo":"-3.812894420802473398031141192901803979146e-18","hi":"3.812894420802473398031141192901803979146e-18"}},"remainder":"3.82e-18","certified":true}',
    ),
    (
        'zeta --re 1 --im 3 --N 32 --k 6',
        'cmd: zeta\n'
        'params: re=1, im=3, N=32, k=6, precision=128\n'
        're in [6.288517339518255341897457360324425553170e-01, 6.288517339518255341924057174537055792055e-01]\n'
        'im in [-1.074757601505864404330294098123506151531e-01, -1.074757601505864404303694283910875913157e-01]\n'
        'remainder <= 1.33e-21\n'
        'certified: true\n',
        '{"cmd":"zeta","params":{"re":"1","im":"3","N":32,"k":6,"precision":128},"value":{"re":{"lo":"6.288517339518255341897457360324425553170e-01","hi":"6.288517339518255341924057174537055792055e-01"},"im":{"lo":"-1.074757601505864404330294098123506151531e-01","hi":"-1.074757601505864404303694283910875913157e-01"}},"remainder":"1.33e-21","certified":true}',
    ),
    (
        'zeta-special --even 2',
        'cmd: zeta-special\n'
        'params: even=2, precision=128\n'
        'value = 1/90\n'
        'zeta(4) = r * pi^4, enclosed in [1.082323233711138191516003696541167902758e+00, 1.082323233711138191516003696541167902806e+00]\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"zeta-special","params":{"even":2,"precision":128},"value":{"rational":"1/90"},"remainder":"0","certified":true}',
    ),
    (
        'zeta-special --neg -3',
        'cmd: zeta-special\n'
        'params: neg=-3\n'
        'value = 1/120\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"zeta-special","params":{"neg":-3},"value":{"rational":"1/120"},"remainder":"0","certified":true}',
    ),
    (
        'lfun --delta 5',
        'cmd: lfun\n'
        'params: delta=5, terms=15, precision=128\n'
        're in [4.304089409640040388888338666200591445219e-01, 4.304089409640040388894521573428143431334e-01]\n'
        'im in [0, 0]\n'
        'remainder <= 1.35e-65\n'
        'certified: true\n',
        '{"cmd":"lfun","params":{"delta":5,"terms":15,"precision":128},"value":{"re":{"lo":"4.304089409640040388888338666200591445219e-01","hi":"4.304089409640040388894521573428143431334e-01"},"im":{"lo":"0","hi":"0"}},"remainder":"1.35e-65","certified":true}',
    ),
    (
        'ldir --char 7,2 --s 2.5 --N 2000',
        'cmd: ldir\n'
        'params: char=7,2, s=2.5, N=2000, precision=128\n'
        're in [8.677432403668867798785774374953174453553e-01, 8.677433074489261048722683297705275123637e-01]\n'
        'im in [-8.642262561010954435981002624262473297234e-02, -8.642255852807021936611913396741467059554e-02]\n'
        'remainder <= 3.36e-08\n'
        'certified: true\n',
        '{"cmd":"ldir","params":{"char":"7,2","s":"2.5","N":2000,"precision":128},"value":{"re":{"lo":"8.677432403668867798785774374953174453553e-01","hi":"8.677433074489261048722683297705275123637e-01"},"im":{"lo":"-8.642262561010954435981002624262473297234e-02","hi":"-8.642255852807021936611913396741467059554e-02"}},"remainder":"3.36e-08","certified":true}',
    ),
    (
        'dedekind --d 5 --s 2 --mode product',
        'cmd: dedekind\n'
        'params: d=5, s=2, mode=product, precision=128\n'
        're in [1.161669550520078706078730313413306619992e+00, 1.161672840388212402531646875789359975212e+00]\n'
        'im in [0, 0]\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"dedekind","params":{"d":5,"s":"2","mode":"product","precision":128},"value":{"re":{"lo":"1.161669550520078706078730313413306619992e+00","hi":"1.161672840388212402531646875789359975212e+00"},"im":{"lo":"0","hi":"0"}},"remainder":"0","certified":true}',
    ),
    (
        'siegel --p 13',
        'cmd: siegel\n'
        'params: p=13\n'
        'value = 1/6\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"siegel","params":{"p":13},"value":{"rational":"1/6"},"remainder":"0","certified":true}',
    ),
    (
        'hilbert-volume --p 17',
        'cmd: hilbert-volume\n'
        'params: p=17\n'
        'value = 2/3\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"hilbert-volume","params":{"p":17},"value":{"rational":"2/3"},"remainder":"0","certified":true}',
    ),
    (
        'moduli-volume --g 3',
        'cmd: moduli-volume\n'
        'params: g=3\n'
        'value = 7/1440\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"moduli-volume","params":{"g":3},"value":{"rational":"7/1440"},"remainder":"0","certified":true}',
    ),
    (
        'elliptic --coeffs 0,-1,1,0,0 --invariants',
        'cmd: elliptic\n'
        'params: coeffs=0,-1,1,0,0, invariants=True\n'
        'value = -11\n'
        'b2 = -4; b4 = 0; b6 = 1; b8 = -1; c4 = 16; c6 = -152; disc = -11; j = -4096/11\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"elliptic","params":{"coeffs":"0,-1,1,0,0","invariants":true},"value":{"rational":"-11"},"remainder":"0","certified":true}',
    ),
    (
        'elliptic --coeffs 0,-1,1,0,0 --trace 11',
        'cmd: elliptic\n'
        'params: coeffs=0,-1,1,0,0, trace=11, kind=split node\n'
        'value = 1\n'
        'bad: split node, t_p = 1\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"elliptic","params":{"coeffs":"0,-1,1,0,0","trace":11,"kind":"split node"},"value":{"rational":"1"},"remainder":"0","certified":true}',
    ),
    (
        'elliptic --coeffs 0,0,0,0,1 --local 5 --s 2',
        'cmd: elliptic\n'
        'params: coeffs=0,0,0,0,1, local=5, s=2, precision=128\n'
        're in [1.312499999999999999999999999999999999958e+00, 1.312500000000000000000000000000000000042e+00]\n'
        'im in [0, 0]\n'
        'remainder <= 0\n'
        'certified: true\n',
        '{"cmd":"elliptic","params":{"coeffs":"0,0,0,0,1","local":5,"s":"2","precision":128},"value":{"re":{"lo":"1.312499999999999999999999999999999999958e+00","hi":"1.312500000000000000000000000000000000042e+00"},"im":{"lo":"0","hi":"0"}},"remainder":"0","certified":true}',
    ),
    (
        'elliptic --coeffs 0,-1,1,0,0 --lseries --s 2 --primes-up-to 100',
        'cmd: elliptic\n'
        'params: coeffs=0,-1,1,0,0, lseries=True, s=2, primes_up_to=100, precision=128\n'
        're in [4.866523739794104575821514532450382487732e-01, 6.108287875868983561326059392759505469215e-01]\n'
        'im in [0, 0]\n'
        'remainder <= 1.14e-01\n'
        'certified: true\n',
        '{"cmd":"elliptic","params":{"coeffs":"0,-1,1,0,0","lseries":true,"s":"2","primes_up_to":100,"precision":128},"value":{"re":{"lo":"4.866523739794104575821514532450382487732e-01","hi":"6.108287875868983561326059392759505469215e-01"},"im":{"lo":"0","hi":"0"}},"remainder":"1.14e-01","certified":true}',
    ),
]


def _stdout(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("argv, text, line", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_readme_example_prints_the_golden_record(capsys, argv, text, line):
    out = _stdout(capsys, shlex.split(argv))
    assert re.subn(r"elapsed: \d+ ms\n\Z", "", out) == (text, 1)
    out = _stdout(capsys, ["--json", *shlex.split(argv)])
    assert re.subn(r',"ms":\d+\}\n\Z', "}", out) == (line, 1)


@pytest.mark.parametrize("argv, code, prefix", [
    ("--precision 10 zeta --re 2", 64, "usage error: "),
    ("--precision 15000 zeta --re 2", 64, "usage error: --precision 15000 exceeds the cap of 10000 bits"),
    ("zeta --re 1", 3, "uncertified: "),
    ("lfun --delta 7", 2, "domain error: "),
])
def test_failures_keep_their_exit_code_and_stderr_prefix(capsys, argv, code, prefix):
    assert main(shlex.split(argv)) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix)

"""Report bytes pinned across versions.

Criterion 11 compares two runs of the same code; this test compares the
current code with recorded sha256 digests of every bundled-fixture report,
of ``optimize`` and ``game`` reports under ``--grid`` and ``--tol``, and
of four larger reports from variants of the fixtures that span many
chunks of the report writer, in CSV and in JSON.
A change that moves a float in any report must update the digest here and
say in CHANGES.md which value moved and why. Digests were recorded with
numpy's float64 arithmetic on x86-64 Linux; a platform whose libm rounds
``pow`` differently may need its own record.
"""

import contextlib
import hashlib
import io
import json

import pytest

from epicost.cli import main
from epicost.fixtures import fixture_path

# every command each fixture accepts, at default settings
_ACCEPTED = {
    "one_region_quadratic": ("optimize", "simulate", "compare-schedules", "validate"),
    "boundary_trio": ("import-dist", "optimize", "simulate", "compare-schedules",
                      "validate"),
    "two_region_symmetric": ("import-dist", "optimize", "game", "simulate",
                             "compare-schedules", "validate"),
    "two_region_virus_free": ("import-dist", "optimize", "game", "simulate",
                              "compare-schedules", "validate"),
    "two_region_asymmetric": ("import-dist", "optimize", "game", "simulate",
                              "compare-schedules", "validate"),
    "import_dist_small": ("import-dist", "optimize", "game", "simulate",
                          "compare-schedules", "validate"),
}

JOBS = [(fixture, command, ()) for fixture, commands in _ACCEPTED.items()
        for command in commands]
JOBS += [(fixture, "import-dist", extra)
         for fixture, commands in _ACCEPTED.items() if "import-dist" in commands
         for extra in (("--mc-trials", "2000", "--seed", "7"), ("--format", "json"))]
JOBS += [(fixture, "game", ("--format", "csv"))
         for fixture, commands in _ACCEPTED.items() if "game" in commands]
# the other format of every command each fixture accepts
JOBS += [(fixture, command, ("--format", fmt))
         for command, fmt in (("optimize", "csv"), ("simulate", "json"),
                              ("compare-schedules", "json"), ("validate", "csv"))
         for fixture in _ACCEPTED]

# bundled fixtures with some keys replaced, for reports that span many
# chunks of the report writer: name -> (fixture, {section: {key: value}})
VARIANTS = {
    "one_region_quadratic[r_grid_step=0.05,horizon=60]": (
        "one_region_quadratic", {"dynamics": {"r_grid_step": 0.05, "horizon": 60}}),
    # 16,401 schedules: five chunks, so the JSON rows are formatted in
    # more than one process
    "one_region_quadratic[horizon=40]": (
        "one_region_quadratic", {"dynamics": {"horizon": 40}}),
    "import_dist_small[population=100000,travelers=10000]": (
        "import_dist_small", {"regions": {"population": 100000},
                              "links": {"travelers": 10000}}),
    # two links of 6,001 rows: the second starts inside the second chunk,
    # and 10,000 trials take three blocks of draws
    "two_region_symmetric[population=100000,travelers=6000]": (
        "two_region_symmetric", {"regions": {"population": 100000},
                                 "links": {"travelers": 6000}}),
}
# --grid and --tol laid over each file's solver block
JOBS += [(fixture, command, ("--grid", "501", "--tol", "1e-4"))
         for command, fixtures in (
             ("optimize", ("boundary_trio", "two_region_symmetric",
                           "two_region_asymmetric")),
             ("game", ("two_region_symmetric", "two_region_virus_free",
                       "two_region_asymmetric")))
         for fixture in fixtures]
JOBS += [("one_region_quadratic[r_grid_step=0.05,horizon=60]", "compare-schedules", ()),
         ("one_region_quadratic[horizon=40]", "compare-schedules", ("--format", "json")),
         ("import_dist_small[population=100000,travelers=10000]", "import-dist",
          ("--mc-trials", "2000", "--seed", "7")),
         ("two_region_symmetric[population=100000,travelers=6000]", "import-dist",
          ("--mc-trials", "10000", "--seed", "7"))]


def job_id(job) -> str:
    fixture, command, extra = job
    return " ".join((fixture, command, *extra))


def config_path(fixture, work) -> str:
    """Path of the job's scenario: a bundled fixture, or a variant written to ``work``."""
    if fixture not in VARIANTS:
        return str(fixture_path(fixture))
    base, changes = VARIANTS[fixture]
    raw = json.loads(fixture_path(base).read_text())
    for section, values in changes.items():
        for entry in raw[section] if isinstance(raw[section], list) else [raw[section]]:
            entry.update(values)
    path = work / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


def report_digests(job, work) -> dict[str, str]:
    """Run one job in-process; map each report file name to its sha256."""
    fixture, command, extra = job
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", config_path(fixture, work),
                     "--out", str(out), *extra])
    assert code == 0, job_id(job)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


EXPECTED = {
    'one_region_quadratic optimize': {
        'optimize.json':
            '8d275def1ddd26b170bb9625e89c653100cb0f0917761f659812ee14acecd7b2',
    },
    'one_region_quadratic simulate': {
        'simulate.csv':
            '9e6de869c1c5bf1d370a23d666e60def1a6c7067193d5fbdc7c698cde278c8f6',
    },
    'one_region_quadratic compare-schedules': {
        'compare_schedules.csv':
            '8ccc2a5bb8fadb3ea3a858de6413741d0dbf7db089199910c0e1878740a54f20',
    },
    'one_region_quadratic validate': {
        'validate.json':
            'b0e29c880f913b3517788c18fdda4df9827ed9db2f349d68f0eb812e0c12e33f',
    },
    'boundary_trio import-dist': {
        'import_dist.csv':
            '65a55e296ac483066a7ed248459ab8cb4e5d59eafc3d26b49398f6ca1d9f96d0',
    },
    'boundary_trio optimize': {
        'optimize.json':
            'e515801346487f5c8536c48693f240698afac25788dfa4e392d854ffb9c13c16',
    },
    'boundary_trio simulate': {
        'simulate.csv':
            '1abde574c0add24f9884cbd9491adba6df697c9947d16cefb18684e57caf95f3',
    },
    'boundary_trio compare-schedules': {
        'compare_schedules.csv':
            '6d955548660a94ca0712d399ae7b242b9d1975d34dcb79e1ca9617a8a45cfdd0',
    },
    'boundary_trio validate': {
        'validate.json':
            'f06db06e8d96adae105f61b5717ebe50c090838721e3c56503aeb2bb41be6b0d',
    },
    'two_region_symmetric import-dist': {
        'import_dist.csv':
            '9880d5c93981d73cb13b9a07632271ddcb9049b7def6eefbc8f765e9a7056ed3',
    },
    'two_region_symmetric optimize': {
        'optimize.json':
            '337719389bdb2997f697f903d62d09216521f9b0f1d3a38fd082428136607b9b',
    },
    'two_region_symmetric game': {
        'game.json':
            '4625388f3989b44ba5d9664c50c06ebf58abe02ae34264be6f29583195378d85',
    },
    'two_region_symmetric simulate': {
        'simulate.csv':
            '806c0dcc0f6a7459887cbccfb9fe1aa86594abbc3cee60e16b163dbeea6515a3',
    },
    'two_region_symmetric compare-schedules': {
        'compare_schedules.csv':
            '91260bfe503c74fc777a31d421f87448c68fbfb9fc1ccd601faaa9da62a94d2d',
    },
    'two_region_symmetric validate': {
        'validate.json':
            '7dcd095254702ba5617aaf21263cbd979ee723741eb7f72dbe2842e8717af740',
    },
    'two_region_virus_free import-dist': {
        'import_dist.csv':
            'd2e22e35a307a2eeb2c67e74ade9c1febcfe64a692bac3015120ecaf51b36dd0',
    },
    'two_region_virus_free optimize': {
        'optimize.json':
            '469d3b0ce74e00db1d37ac3b1888a560b7b0da87f76e5bece12db1274a52d79a',
    },
    'two_region_virus_free game': {
        'game.json':
            '40e485b3e7738a5c498f8b4a08bf5d46feb45e012210e1b49747df8d4f8be5d2',
    },
    'two_region_virus_free simulate': {
        'simulate.csv':
            '885ac23cb9fadde52ef78715ab59105e92a758d7554909a60cecfb549eb0c30e',
    },
    'two_region_virus_free compare-schedules': {
        'compare_schedules.csv':
            '9d7647bcaa90be2516496a3a3dc84540ea295e724d72ef1ce0299d11b6601732',
    },
    'two_region_virus_free validate': {
        'validate.json':
            'bcb1ff3efd65a672a891e2476b8bc0bd6113df6f20aa19a26e5d1b19121c53de',
    },
    'two_region_asymmetric import-dist': {
        'import_dist.csv':
            '4908b0f64cec8986d09917d393142c921ef02a8af960c0e521321b684a7ba3ed',
    },
    'two_region_asymmetric optimize': {
        'optimize.json':
            '46e7db44312127241872df0736d7854e6da141ab114ad9d1c0d02d770238f2ff',
    },
    'two_region_asymmetric game': {
        'game.json':
            'f936e7e739d053871ab87a0608e05da011ee98f0e461bc0d2b8c72d49a6a96ae',
    },
    'two_region_asymmetric simulate': {
        'simulate.csv':
            '94d9be36e44a7b848b5b5704051d469ee37ef71cb506941066e6e41ae5fc4fd1',
    },
    'two_region_asymmetric compare-schedules': {
        'compare_schedules.csv':
            '9d0a6a6620ef57c6daf5584ebedc7fdab8312d42c7422bbd4389ed949b2f9c76',
    },
    'two_region_asymmetric validate': {
        'validate.json':
            '5f7a8639beb3e48b524aeace154b1e718eebc315d5a08d5127964da8901456ad',
    },
    'import_dist_small import-dist': {
        'import_dist.csv':
            'd5c65251691596a04d4838ceae55830b7dcbf01ec61589ef2e9cd9e998132f54',
    },
    'import_dist_small optimize': {
        'optimize.json':
            '52f9706cd111cdce0429034240006a7bbc5aef959c49032266f3c1779070ef39',
    },
    'import_dist_small game': {
        'game.json':
            '8b8c4b8c094c6c7f89737b8d4a5ec9326c044ff61c8427e9d403a10bc5d512d0',
    },
    'import_dist_small simulate': {
        'simulate.csv':
            '29a21bf8512ec1af305140d4710f60ffc29ec6164cae4a6235043244297e2891',
    },
    'import_dist_small compare-schedules': {
        'compare_schedules.csv':
            '24576c69056eeefd3d6809fd393a7145dea88dc73f4222f43d6ebe3df947f11e',
    },
    'import_dist_small validate': {
        'validate.json':
            'ce08a2aaebe3e1836d501e159d99a12311bdf97e63306879dcbbc50c6e624022',
    },
    'boundary_trio import-dist --mc-trials 2000 --seed 7': {
        'import_dist.csv':
            '6ad7171e04fa9a49acc8b8a4ddd6452dc1cdcc074ca4e6d86152a9fab7f33fe1',
    },
    'boundary_trio import-dist --format json': {
        'import_dist.json':
            'c8edcb5491065f239f602cc4c2ca8b34b31977cbdb9ee8a5ef6ee99ae9470748',
    },
    'two_region_symmetric import-dist --mc-trials 2000 --seed 7': {
        'import_dist.csv':
            '05bb5034a6a70d68cb217961a853179689ed15df24ddaa9527d2a0de80ecc2a7',
    },
    'two_region_symmetric import-dist --format json': {
        'import_dist.json':
            '30f740d8165144bbd8f3b43deb0d9d25e019af7c875f0845d34bf506bfd44f24',
    },
    'two_region_virus_free import-dist --mc-trials 2000 --seed 7': {
        'import_dist.csv':
            '955da56bb82d793759a848d9ba168773a5a151965cf97d437698cd9156ed8733',
    },
    'two_region_virus_free import-dist --format json': {
        'import_dist.json':
            '1d1807b507525472a15798b37368bba6e41d058e268f1465566920db57a3d1af',
    },
    'two_region_asymmetric import-dist --mc-trials 2000 --seed 7': {
        'import_dist.csv':
            'b0e28df32377950e3799490939b99921e7572ccc572ca12899d52522bdbc6a61',
    },
    'two_region_asymmetric import-dist --format json': {
        'import_dist.json':
            '2c99a1a3dea8c1aeeeb7cbe5e3083157d605287812be67fae5fa28317c7e5215',
    },
    'import_dist_small import-dist --mc-trials 2000 --seed 7': {
        'import_dist.csv':
            '4be2858a03fd119a83eca3f09a218a5d906a939aa8af3e5f12e0bcb187d2f1ca',
    },
    'import_dist_small import-dist --format json': {
        'import_dist.json':
            'c016a7be2819190d3450e4acc244c967429522bfb470374fd663d11bbcfa5f66',
    },
    'two_region_symmetric game --format csv': {
        'game.csv':
            'ff3b226e4024d71e41cc578f76f9f9db13a4a7c39b614abba165929d5519d285',
    },
    'two_region_virus_free game --format csv': {
        'game.csv':
            '9be3c4b604776512d5feeef29c3f2e03682f0667bf67157cd8e03039060e44f9',
    },
    'two_region_asymmetric game --format csv': {
        'game.csv':
            'ad169f955d7fff588d6f25652a8426ec5174418e092acff1b590269c9ddde0ae',
    },
    'import_dist_small game --format csv': {
        'game.csv':
            '9134f33aec15a83e0a04c0e5374e3371442f7a5d7cb0386253059220afd31e3e',
    },
    'one_region_quadratic optimize --format csv': {
        'optimize.csv':
            'b77fdc0ad56a0eae30ad578d8b6b05eb46032661470af3b2dcc50e89a8339451',
    },
    'boundary_trio optimize --format csv': {
        'optimize.csv':
            '9d177b59fa2c1ffee7489a8444b087ee32877a0e8f29b8a8d1a0e37f78ceb067',
    },
    'two_region_symmetric optimize --format csv': {
        'optimize.csv':
            '8ad5dc517dfdb03a020432aef7f64350c4cbd000387614f6bd3472ce626eea2e',
    },
    'two_region_virus_free optimize --format csv': {
        'optimize.csv':
            '28e8786dd78add0f6617dd517482adc2bc6f1383fbf685a90dddbff3b34739a5',
    },
    'two_region_asymmetric optimize --format csv': {
        'optimize.csv':
            '5f77bea17e096e221d37449a9a8c088adb8de57e62cb2937aa1b5a7ddb111c0a',
    },
    'import_dist_small optimize --format csv': {
        'optimize.csv':
            'e545faec36caa2cbaaad5e9e34de847dc2a3b78de4c80022b5bfd82b0c41353a',
    },
    'one_region_quadratic simulate --format json': {
        'simulate.json':
            '9fc266ae763a9a6a4d9cc5326a6dc1e37f07d4f3e18dfe333d04ffe19deba6ce',
    },
    'boundary_trio simulate --format json': {
        'simulate.json':
            'd76655e282e8a028bb4aed862f0787bf23ee992701ecbb1da722ffb058dfd238',
    },
    'two_region_symmetric simulate --format json': {
        'simulate.json':
            '74a28913e510b5a3a8e39f870fb3f18951290abbda0d223072f46c16db1b5e36',
    },
    'two_region_virus_free simulate --format json': {
        'simulate.json':
            'f6ba8cd6d7d32bf436aba3434d5c8fccfb2a5e989ef1b94e94882643e3fde8b5',
    },
    'two_region_asymmetric simulate --format json': {
        'simulate.json':
            '24fd223d14c0629f44ae794302f2dc6e76f97888ed91bd3e47d060f599376e93',
    },
    'import_dist_small simulate --format json': {
        'simulate.json':
            '8c39783f08d77d429d39fce25f57d28e1d7d1e2795e3cf682f56e22c9a4368ca',
    },
    'one_region_quadratic compare-schedules --format json': {
        'compare_schedules.json':
            '51601f78550f48bfd13a001aa0d12c99b0773c308a5b15a29c9e835baef51594',
    },
    'boundary_trio compare-schedules --format json': {
        'compare_schedules.json':
            '572c79e54edca80cd08f31afc1722e9bfeea446023be6f62375497e2adb9e998',
    },
    'two_region_symmetric compare-schedules --format json': {
        'compare_schedules.json':
            '8ddcc0413adf85c9b4ea82901b091397abbe37ee0eef1ecd35b059bfcea02f48',
    },
    'two_region_virus_free compare-schedules --format json': {
        'compare_schedules.json':
            '9f72ddd5f10bb2e5f03d951ef14b3e3ed94e443f89172c364692b23a00ef81a7',
    },
    'two_region_asymmetric compare-schedules --format json': {
        'compare_schedules.json':
            'e865f5fbdca1c3ed6b446ff5d5c92615552affa98aa29cb73a1ffb05cd73d88e',
    },
    'import_dist_small compare-schedules --format json': {
        'compare_schedules.json':
            'd474a83a50f7a042ed2c51825cd0952d930b3795bf895ecb6eb50937d674ca2b',
    },
    'one_region_quadratic validate --format csv': {
        'validate.csv':
            'cc3cd40fc03e32ea1199fe8669ddb79adbea69679e8a477de3310205934ae39f',
    },
    'boundary_trio validate --format csv': {
        'validate.csv':
            'a0b91ebe2537ae3f253568673d8d5050cab6b6665ab772cb35458eb202f52868',
    },
    'two_region_symmetric validate --format csv': {
        'validate.csv':
            '121489f8c784f130c25ca54d1ce52ef60250342a94973d75a5a69e00e3bf52bf',
    },
    'two_region_virus_free validate --format csv': {
        'validate.csv':
            '51506779288fc9bd329e8b2c3c264bc183a3671ec404ceb04fd4d357b3af4099',
    },
    'two_region_asymmetric validate --format csv': {
        'validate.csv':
            'bf6ff3ed6dbe796359375933809e55ca1372efabf298d0afc2eeba68c8fba74d',
    },
    'import_dist_small validate --format csv': {
        'validate.csv':
            '23968f0e044ce6429fb072efec9ef4aca98bd0db1cf4283a90de273af0fe0fed',
    },
    'one_region_quadratic[r_grid_step=0.05,horizon=60] compare-schedules': {
        'compare_schedules.csv':
            'b227c05c57e889d4979152f422440dc981d9fd6b71969f4cd8dcdb47e08c902f',
    },
    'import_dist_small[population=100000,travelers=10000] import-dist '
    '--mc-trials 2000 --seed 7': {
        'import_dist.csv':
            'd24a70dc0a680161e0485e6991df2e14dbe92dffaf5cb12983d4b1a73b72b95e',
    },
    'two_region_symmetric[population=100000,travelers=6000] import-dist '
    '--mc-trials 10000 --seed 7': {
        'import_dist.csv':
            '3a8e4e00b7ced8c9e558cb860e8ba57bc2f8ac713a0c6381fbb99acb96219d9d',
    },
    'one_region_quadratic[horizon=40] compare-schedules --format json': {
        'compare_schedules.json':
            '1a5eb8c45f31c85855262a41600f8f5651f259e0765230d24a1e931f4a4a95f5',
    },
    'boundary_trio optimize --grid 501 --tol 1e-4': {
        'optimize.json':
            '370df366f341b2aaa0c541156f256af7682c868de40022f625bb994a5f64113e',
    },
    'two_region_symmetric optimize --grid 501 --tol 1e-4': {
        'optimize.json':
            'fc305c9c1f5831e6bfea23b7d025e09c62b364998715a7ea174e65cc38723fd4',
    },
    'two_region_asymmetric optimize --grid 501 --tol 1e-4': {
        'optimize.json':
            '03e3bc7c4354acf9c133cf88e57928862d81367112f836dd9cb9de700466b4a5',
    },
    'two_region_symmetric game --grid 501 --tol 1e-4': {
        'game.json':
            'ad487ecdc5f822398289788a22daee700af243d494bdaaa0a4aef850f88eb943',
    },
    'two_region_virus_free game --grid 501 --tol 1e-4': {
        'game.json':
            '40e485b3e7738a5c498f8b4a08bf5d46feb45e012210e1b49747df8d4f8be5d2',
    },
    'two_region_asymmetric game --grid 501 --tol 1e-4': {
        'game.json':
            'e1213c026b97909a7ef1638f1ac0dbcd9269f465c6a46da7e99eb731efb3f076',
    },
}


@pytest.mark.parametrize("job", JOBS, ids=job_id)
def test_report_bytes_pinned(job, tmp_path):
    assert report_digests(job, tmp_path) == EXPECTED[job_id(job)]

"""Output bytes move only with a version bump: small runs of every command
are hashed and compared with the row recorded for ``__version__``.

A change that moves output bytes bumps ``__version__`` (so ``replay``
warns) and adds a row here, recorded from the new code. The
``diagnose-design`` run is on the exact cone route at a size where the
bytes do not depend on the BLAS thread count."""

import hashlib
import json

import numpy as np

from sparse_minimax import __version__
from sparse_minimax.cli import run

RISK_CFG = """
n = 30
p = 12
k = 2
sigma = 1.0
eps = 0.1
estimator_id = lasso
amplitudes = 2.0, 4.0
reps = 3
master_seed = 11
"""

LEMMA_CFG = """
n = 200
p = 50
k = 2
sigma = 1.0
eps = 0.1
"""

# the aggregated estimator's event holds on every replicate of this one
EVENT_CFG = """
n = 1000
p = 40
k = 2
sigma = 1.0
eps = 2.0
estimator_id = lasso
amplitudes = 4.0, 8.0, 16.0
reps = 3
master_seed = 11
"""

# the stochastic-error driver's column-norm hypothesis holds on every
# replicate of this one (on LEMMA_CFG it holds on none)
WIDE_LEMMA_CFG = LEMMA_CFG.replace("eps = 0.1", "eps = 2.0")

# the desk sweep's k and amplitudes at a size where the Lasso's and
# SLOPE's supports grow past S across the amplitudes on both replicates
GROWING_CFG = """
n = 600
p = 1200
k = 8
sigma = 1.0
eps = 0.1
estimator_id = lasso
amplitudes = 0.25, 0.5, 1.0, 2.0, 4.0, 8.0
reps = 2
master_seed = 11
"""

CONFIGS = {"risk": RISK_CFG, "lemma": LEMMA_CFG, "event": EVENT_CFG, "wide": WIDE_LEMMA_CFG, "growing": GROWING_CFG}

# every estimator at a size under the best-subset enumeration cap, the
# aggregated estimator on its Lasso branch, the desk sweep's estimators
# with growing supports, one estimator alone, one exact-route design
# check, three proof drivers (one of them twice) and seven registry rows
RUNS = {
    "sweep": ["sweep", "--config", "{risk}", "--estimators", "oracle,lasso,slope,mle,aggregated"],
    "sweep-growing": ["sweep", "--config", "{growing}", "--estimators", "oracle,lasso,slope"],
    "sweep-on-event": ["sweep", "--config", "{event}", "--estimators", "lasso,aggregated"],
    "simulate-risk": ["simulate-risk", "--config", "{risk}"],
    "diagnose-design": ["diagnose-design", "--n", "60", "--p", "20", "--k", "2", "--eps", "2.0", "--restarts", "2", "--seed", "5"],
    "gap": ["check-lemma", "--lemma", "gap", "--config", "{lemma}", "--reps", "3", "--seed", "2"],
    "gauss_max": ["check-lemma", "--lemma", "gauss_max", "--reps", "300", "--seed", "4"],
    "resolvent": ["check-lemma", "--lemma", "resolvent", "--config", "{lemma}", "--reps", "3", "--seed", "2"],
    "stochastic-error": ["check-lemma", "--lemma", "stochastic-error", "--config", "{lemma}", "--reps", "3", "--seed", "2"],
    "stochastic-error-wide": [
        "check-lemma", "--lemma", "stochastic-error", "--config", "{wide}", "--reps", "3", "--seed", "2",
    ],
    "sup_xtz": ["check-lemma", "--lemma", "sup_xtz", "--reps", "100", "--seed", "4"],
    **{
        row: ["check-lemma", "--lemma", row, "--reps", "300", "--seed", "4"]
        for row in ("chi2_lower", "order_mean", "order_conc", "topk_avg", "median_event")
    },
}

# per version: the numpy and the BLAS it was recorded with, and the SHA-256
# of each data file and of each manifest's config section (the manifest
# itself holds timestamps)
HASHES = {
    "0.1.8": {
        "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31.188.0",
        "files": {
            "diagnose-design/diagnose.json": "a7ef7c91acd12678350352bc9c16fd8ebd1d8d71c88110fd2747a42bc1748297",
            "diagnose-design/manifest.json:config": "75f5fda82ff6430242dd2d26063a462c50002c2378d2b4a1e605ee34e100b3be",
            "gap/lemma_gap.json": "c618c7239507e2fba7d82d47547b4e420fed098b44b9df8575bbba92feb079ac",
            "gap/manifest.json:config": "0a54484d951225339ead9ead388e0d7f2d3946e88d93a6c300332b46e5eca923",
            "gauss_max/lemma_gauss_max.json": "60a5fa2c974e209ef7f7661755cf92279cfb21d4909ec25dad465bed514ba124",
            "gauss_max/manifest.json:config": "df755b806dadc015d985a68f408a04fff990647a6f1c9347c30d8f05c15c6644",
            "simulate-risk/manifest.json:config": "ca6c522cf4837532bc259b60b5e160dc191cb8d91f35b02f9cec3297e39d4ee9",
            "simulate-risk/risk_lasso.csv": "c2f8b6796c016368083adfc04acf7e150aec75151f94a243abb4b6356aa17753",
            "simulate-risk/risk_lasso.tsv": "08b24c50d44852e0cc3f41980ad9a13db530fa4fb4bcb54afa9c33a3205a45cb",
            "simulate-risk/summary_lasso.json": "e24ff7c7976cb56b5041e88f406655350720753f081d3e8281c72abb67a61e34",
            "sweep-on-event/manifest.json:config": "c51ecdd326b995edcd4371fb2de0ac459bed2499d22a2d987c70d502b41626dd",
            "sweep-on-event/risk_aggregated.csv": "f05384a598ece01a8cd527298051d94701557bdeafe6118605ccae89cb844e05",
            "sweep-on-event/risk_aggregated.tsv": "df937b22d3aecb81bec2681b236fee6ef842aa1c1d8fcad57b2781bae6241524",
            "sweep-on-event/risk_lasso.csv": "bb54cfc5a08bdcb22d0331c8ff3368a5eeaa938943dd7588a8b194881018a5c7",
            "sweep-on-event/risk_lasso.tsv": "ce249d1f82a1e7929ff88350d066c1ee419d6505e65d60c7b4cffa8c8690ee9b",
            "sweep-on-event/summary_aggregated.json": "47eefd7c05a81f902017c7d446b1744dff4c9abded5cf5f3526703f9c2a62d90",
            "sweep-on-event/summary_lasso.json": "c9179628fbb6e952424786d9a88806d5ee1b7dd803caa8ebcfc02d3045711f28",
            "sweep-on-event/sweep_summary.json": "2a527a1fc4924694251e20382e19d4be13e492762fdd36860b8122cc6b046b7e",
            "sweep/manifest.json:config": "980461cc7c624809dfbf24d99e2e974035f0ddfb25c15671e82762c8b6378fa1",
            "sweep/risk_aggregated.csv": "b582ec68ad60372b244cc22a81290d5dbda2662a04554c3b4bc61c9a0c537907",
            "sweep/risk_aggregated.tsv": "73ad2547d26f5dd081dda200abf183b756b5a5e66c2b6549ff6d7bbae8d2529f",
            "sweep/risk_lasso.csv": "c2f8b6796c016368083adfc04acf7e150aec75151f94a243abb4b6356aa17753",
            "sweep/risk_lasso.tsv": "08b24c50d44852e0cc3f41980ad9a13db530fa4fb4bcb54afa9c33a3205a45cb",
            "sweep/risk_mle.csv": "11232eab82fe1e793563879572cbd8c4081666f048a5dee61f5afca0b72e0ce3",
            "sweep/risk_mle.tsv": "73ad2547d26f5dd081dda200abf183b756b5a5e66c2b6549ff6d7bbae8d2529f",
            "sweep/risk_oracle.csv": "2e5b491d82a9af234f5181fb4fbed14419be96b78731af32fa1ba102e4ab9172",
            "sweep/risk_oracle.tsv": "d3a6e9e74cd0aee6629bc45a5f3aade116f8a78e9247105f4a8366c2f113ceb2",
            "sweep/risk_slope.csv": "506cbcf55973fb5c7aa7c758102082ef5097e558f39bb10ee5214ff4b113b3ef",
            "sweep/risk_slope.tsv": "6ba752b081b77c186f0d25d5a446cb1980f00b03923c974c3601efaa219f43a2",
            "sweep/summary_aggregated.json": "12caafe3760ccc26b9a1ae1897ece1e87e44ada9fce02203cd0a0399ab617636",
            "sweep/summary_lasso.json": "e24ff7c7976cb56b5041e88f406655350720753f081d3e8281c72abb67a61e34",
            "sweep/summary_mle.json": "70b8c0e4f32a3ce0415a8022b20efdbed5ba7319ba3c5f0abb1e3b6bb2e40a2b",
            "sweep/summary_oracle.json": "51b78053512ec5be849873b6e808888e3a4ced892940d6ed71932927d047f099",
            "sweep/summary_slope.json": "f9f858fdfd181a4992f511499e909adaf6537a77d3b987aeead3285aca96f3e1",
            "sweep/sweep_summary.json": "ae0640ee362030f13f0805320f5aeaa5fe25e92685396b5c4decdc2c1f92a0b4",
        },
    },
    "0.1.9": {
        "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31.188.0",
        "files": {
            "chi2_lower/lemma_chi2_lower.json": "002d3c9b148cafb68eb104ef6c526926b8573f92176c3f5e69cb7a8d32686924",
            "chi2_lower/manifest.json:config": "906fad2ba119e4d839a099c915d722f5b4af2605fbe0d38abd59b9d9c9634bda",
            "diagnose-design/diagnose.json": "a7ef7c91acd12678350352bc9c16fd8ebd1d8d71c88110fd2747a42bc1748297",
            "diagnose-design/manifest.json:config": "75f5fda82ff6430242dd2d26063a462c50002c2378d2b4a1e605ee34e100b3be",
            "gap/lemma_gap.json": "c618c7239507e2fba7d82d47547b4e420fed098b44b9df8575bbba92feb079ac",
            "gap/manifest.json:config": "0a54484d951225339ead9ead388e0d7f2d3946e88d93a6c300332b46e5eca923",
            "gauss_max/lemma_gauss_max.json": "60a5fa2c974e209ef7f7661755cf92279cfb21d4909ec25dad465bed514ba124",
            "gauss_max/manifest.json:config": "df755b806dadc015d985a68f408a04fff990647a6f1c9347c30d8f05c15c6644",
            "median_event/lemma_median_event.json": "509584d72d63842d106985385fc738264c1742eb6d4de1a50dc968e2cda44bcd",
            "median_event/manifest.json:config": "862973f35126f7a5e433a8590b4994b3c73e03e956907d3bf542c166fada33c0",
            "order_conc/lemma_order_conc.json": "a77bc0e31169db63e96d80ec449d201acedd7868ab68d339b92c57898d3d9a51",
            "order_conc/manifest.json:config": "f48a53c378991f6390aa29cf8ec8155857a5eb6508d2674fadf6e3e81bb25fd3",
            "order_mean/lemma_order_mean.json": "805e5298a87972ef525f5ec964e331ec1ce132de27126ee8e8fa6cd40b1fb8a0",
            "order_mean/manifest.json:config": "babe8219b68d291ad37d83314158feb7cc003c4cf3a1e2639c8e955a91416ba1",
            "resolvent/lemma_resolvent.json": "db7e5c301671bb2efa854079d196800d7005912aad6022bc2a0be14afdb5e3fd",
            "resolvent/manifest.json:config": "3734c828122495e3f7d8abf3364388910837ea4528d25a74151af0f8272eb31e",
            "simulate-risk/manifest.json:config": "ca6c522cf4837532bc259b60b5e160dc191cb8d91f35b02f9cec3297e39d4ee9",
            "simulate-risk/risk_lasso.csv": "c2f8b6796c016368083adfc04acf7e150aec75151f94a243abb4b6356aa17753",
            "simulate-risk/risk_lasso.tsv": "08b24c50d44852e0cc3f41980ad9a13db530fa4fb4bcb54afa9c33a3205a45cb",
            "simulate-risk/summary_lasso.json": "e24ff7c7976cb56b5041e88f406655350720753f081d3e8281c72abb67a61e34",
            "stochastic-error-wide/lemma_stochastic-error.json": "3943fdd5cf0694bab896b8c25912eaa265a8089ce3616129d5d4f21a02a977ad",
            "stochastic-error-wide/manifest.json:config": "7e7f1dc366ea0eb2ddd7b7f024472234ed672ea50941e5678128150482fc70b6",
            "stochastic-error/lemma_stochastic-error.json": "ded3969b9fc6e178a41ec112521ac6d8f8a8c73e8755439bc096f93a0af9c7f9",
            "stochastic-error/manifest.json:config": "6fd37b1ddcad61bc13bd3350b90171b0d471c79e03830def4a70fff9f737ff3f",
            "sup_xtz/lemma_sup_xtz.json": "9b8cace6bea0656ead821680d771ee7ab2ffd93dc00ec0702f35dae413983572",
            "sup_xtz/manifest.json:config": "2017ccb77d1ed06ec9d3c793f5f71039f31a569b4a480343bd201ea7c3af656c",
            "sweep-growing/manifest.json:config": "7ee29090c6525375ae330784301c50344710196076484945f1d683df30d68aac",
            "sweep-growing/risk_lasso.csv": "ec0a965935dcc0312e9d23bc3f80c259d22690e076aafadfee25b7366692db58",
            "sweep-growing/risk_lasso.tsv": "c5d9f53a5368146251c84737b49d946d8d3858710e9b5491231038a44119feab",
            "sweep-growing/risk_oracle.csv": "86c5f6109cfeae1a099d652e715e1d80d32ca3756bcdda005be75bdb44671c59",
            "sweep-growing/risk_oracle.tsv": "ec0509759eb8f6e254c16df34174e748527ecc752de258e6efd2c98638a68654",
            "sweep-growing/risk_slope.csv": "d6378b3c57c9a8ce99a0644ffd670df0b7a82621bb8812b71716cc1683023046",
            "sweep-growing/risk_slope.tsv": "22cc70c28cf56b7d7f344482b40401ac09571f81ecdd2fd1397b2a8345add687",
            "sweep-growing/summary_lasso.json": "ba32ed23e6fbb0ec521e99049a491b685e671684a73b33905cc412a055e326b3",
            "sweep-growing/summary_oracle.json": "a5e3b14fb0bc7ba8de7e778effce8f4c2ff58de18fd2cf4e882f6755c90fe453",
            "sweep-growing/summary_slope.json": "44b5dede26c6b870420b20bf6f44634e04715b738889e571978e22eac65223e4",
            "sweep-growing/sweep_summary.json": "4e66fd3056112e5dc65b56f6d16e0109bafbb794a7fd07131c2f79580852789f",
            "sweep-on-event/manifest.json:config": "c51ecdd326b995edcd4371fb2de0ac459bed2499d22a2d987c70d502b41626dd",
            "sweep-on-event/risk_aggregated.csv": "8cf992f6b79fdf70f126c8b2dd0f5ad7de553bbdf5c2a496cfc0a34234115ed0",
            "sweep-on-event/risk_aggregated.tsv": "ce249d1f82a1e7929ff88350d066c1ee419d6505e65d60c7b4cffa8c8690ee9b",
            "sweep-on-event/risk_lasso.csv": "bb54cfc5a08bdcb22d0331c8ff3368a5eeaa938943dd7588a8b194881018a5c7",
            "sweep-on-event/risk_lasso.tsv": "ce249d1f82a1e7929ff88350d066c1ee419d6505e65d60c7b4cffa8c8690ee9b",
            "sweep-on-event/summary_aggregated.json": "bb425945ac7d2cf0766522c3e99d4ca6bb126100b19bd6abee47a7bcd1fba060",
            "sweep-on-event/summary_lasso.json": "c9179628fbb6e952424786d9a88806d5ee1b7dd803caa8ebcfc02d3045711f28",
            "sweep-on-event/sweep_summary.json": "bb441df728ac87f524c64cc0bac8efd082f4edbd2f694386a5e2d4a70f42a52a",
            "sweep/manifest.json:config": "980461cc7c624809dfbf24d99e2e974035f0ddfb25c15671e82762c8b6378fa1",
            "sweep/risk_aggregated.csv": "b582ec68ad60372b244cc22a81290d5dbda2662a04554c3b4bc61c9a0c537907",
            "sweep/risk_aggregated.tsv": "73ad2547d26f5dd081dda200abf183b756b5a5e66c2b6549ff6d7bbae8d2529f",
            "sweep/risk_lasso.csv": "c2f8b6796c016368083adfc04acf7e150aec75151f94a243abb4b6356aa17753",
            "sweep/risk_lasso.tsv": "08b24c50d44852e0cc3f41980ad9a13db530fa4fb4bcb54afa9c33a3205a45cb",
            "sweep/risk_mle.csv": "11232eab82fe1e793563879572cbd8c4081666f048a5dee61f5afca0b72e0ce3",
            "sweep/risk_mle.tsv": "73ad2547d26f5dd081dda200abf183b756b5a5e66c2b6549ff6d7bbae8d2529f",
            "sweep/risk_oracle.csv": "2e5b491d82a9af234f5181fb4fbed14419be96b78731af32fa1ba102e4ab9172",
            "sweep/risk_oracle.tsv": "d3a6e9e74cd0aee6629bc45a5f3aade116f8a78e9247105f4a8366c2f113ceb2",
            "sweep/risk_slope.csv": "506cbcf55973fb5c7aa7c758102082ef5097e558f39bb10ee5214ff4b113b3ef",
            "sweep/risk_slope.tsv": "6ba752b081b77c186f0d25d5a446cb1980f00b03923c974c3601efaa219f43a2",
            "sweep/summary_aggregated.json": "12caafe3760ccc26b9a1ae1897ece1e87e44ada9fce02203cd0a0399ab617636",
            "sweep/summary_lasso.json": "e24ff7c7976cb56b5041e88f406655350720753f081d3e8281c72abb67a61e34",
            "sweep/summary_mle.json": "70b8c0e4f32a3ce0415a8022b20efdbed5ba7319ba3c5f0abb1e3b6bb2e40a2b",
            "sweep/summary_oracle.json": "51b78053512ec5be849873b6e808888e3a4ced892940d6ed71932927d047f099",
            "sweep/summary_slope.json": "f9f858fdfd181a4992f511499e909adaf6537a77d3b987aeead3285aca96f3e1",
            "sweep/sweep_summary.json": "ae0640ee362030f13f0805320f5aeaa5fe25e92685396b5c4decdc2c1f92a0b4",
            "topk_avg/lemma_topk_avg.json": "527e7735475c4adeaba572c240011c44694c116e909af1afb9f3406d975cb83c",
            "topk_avg/manifest.json:config": "a855f9aec5d823f510d9c7f0ff5dfeb2b617b0ac276f0287ff93785d338d1bf4",
        },
    },
}


def blas() -> str:
    """The name and version of the BLAS numpy was built with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info.get('version', 'unknown')}"


def output_hashes(tmp_path) -> dict[str, str]:
    """The hash of every data file and manifest config of RUNS, run in
    fresh directories under tmp_path."""
    paths = {}
    for key, text in CONFIGS.items():
        paths["{" + key + "}"] = path = tmp_path / f"{key}.cfg"
        path.write_text(text)
    hashes = {}
    for name, argv in RUNS.items():
        out = tmp_path / name
        out.mkdir()
        argv = [str(paths.get(a, a)) for a in argv]
        assert run([*argv, "--out", str(out)]) in (0, 2), name
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                config = json.loads(path.read_text())["config"]
                data = json.dumps(config, sort_keys=True).encode()
                hashes[f"{name}/manifest.json:config"] = hashlib.sha256(data).hexdigest()
            else:
                hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def row_text(hashes: dict[str, str]) -> str:
    """The entry of HASHES for ``__version__`` that ``hashes`` make, laid
    out as the table is, ready to paste."""
    lines = [f'    "{__version__}": {{', f'        "numpy": "{np.__version__}",', f'        "blas": "{blas()}",', '        "files": {']
    lines += [f'            "{name}": "{digest}",' for name, digest in sorted(hashes.items())]
    return "\n".join([*lines, "        },", "    },"])


def test_output_bytes_match_the_row_of_this_version(tmp_path):
    row = HASHES.get(__version__)
    got = output_hashes(tmp_path)
    computed = f"\nthe row this run computed:\n{row_text(got)}"
    assert row is not None, (
        f"no output hashes recorded for version {__version__} (numpy {np.__version__}, BLAS {blas()}); "
        "a change that moves output bytes bumps __version__ and records a row" + computed
    )
    moved = sorted(name for name in set(got) | set(row["files"]) if got.get(name) != row["files"].get(name))
    assert moved == [], (
        f"output bytes differ from the row of version {__version__}: {moved}; the row was recorded "
        f"with numpy {row['numpy']} and BLAS {row['blas']}, this run has numpy {np.__version__} and BLAS {blas()}"
        + computed
    )

//! Property tests of checkpoint crash-consistency: corrupting a
//! store-campaign checkpoint at **any** offset, with any corruption
//! class, yields either a classified error or a clean fallback to the
//! backup generation — never a panic, and never a silently different
//! checkpoint handed to resume.

use std::path::PathBuf;

use proptest::prelude::*;
use qdi_dpa::{CampaignError, StoreCheckpoint};
use qdi_exec::chaos::Corruption;

fn tmp(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qdi_dpa_ckpt_{tag}_{}_{case}.json",
        std::process::id()
    ))
}

/// Hand-built generation `g` of a store checkpoint — distinct
/// generations serialize to distinct JSON, so a fallback is detectable.
fn store_checkpoint(g: usize) -> StoreCheckpoint {
    StoreCheckpoint {
        fingerprint: "proptest-cfg workers=2".into(),
        completed: 10 + g,
        store_path: "campaign.qtrs".into(),
        store_offset: 1000 + g as u64,
        quarantined: vec![3, 9],
    }
}

fn corruption(kind: u8, offset: u64, bit: u8, len: u64, file_len: u64) -> Corruption {
    let at = offset % file_len;
    match kind {
        0 => Corruption::Truncate { at },
        1 => Corruption::BitFlip {
            offset: at,
            bit: bit % 8,
        },
        _ => Corruption::Drop {
            at,
            len: 1 + len % (file_len - at).min(64),
        },
    }
}

fn corrupt_file(path: &PathBuf, c: Corruption) {
    let mut bytes = std::fs::read(path).expect("read target");
    c.apply(&mut bytes);
    std::fs::write(path, &bytes).expect("write corrupted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corrupt the *primary* of a two-generation store checkpoint
    /// (offset + quarantine manifest): load must return the current
    /// generation (corruption missed the payload semantics — impossible
    /// with CRC, but allowed in form), fall back cleanly to the previous
    /// generation, or classify. It must never produce a third state.
    #[test]
    fn corrupted_store_checkpoint_never_resumes_wrong(
        case in any::<u64>(),
        offset in any::<u64>(),
        kind in 0u8..3,
        bit in any::<u8>(),
        drop_len in any::<u64>(),
    ) {
        let path = tmp("store", case);
        let bak = path.with_extension("json.bak");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();

        let gen1 = store_checkpoint(1);
        let gen2 = store_checkpoint(2);
        gen1.save(&path).expect("save gen1");
        gen2.save(&path).expect("save gen2");
        let json1 = serde_json::to_string(&gen1).expect("json1");
        let json2 = serde_json::to_string(&gen2).expect("json2");

        let file_len = std::fs::metadata(&path).expect("meta").len();
        corrupt_file(&path, corruption(kind, offset, bit, drop_len, file_len));

        match StoreCheckpoint::load(&path) {
            Ok(cp) => {
                let got = serde_json::to_string(&cp).expect("reserialize");
                prop_assert!(
                    got == json2 || got == json1,
                    "load invented a store checkpoint that was never saved"
                );
            }
            Err(CampaignError::Checkpoint(_)) | Err(CampaignError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unclassified failure: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
    }
}

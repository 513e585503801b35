//! `results-diff`: the numeric cells of `results/*.txt` that moved.
//!
//! A change that moves a simulated number declares every moved cell. This
//! compares two texts of one results file line by line. Where a line keeps
//! its words and only numbers differ, each differing number is one
//! [`Change::Cell`] with its relative change; any other difference is one
//! [`Change::Line`].

use std::fmt;

/// One difference between two texts of a results file.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// A number on a line whose words did not change.
    Cell {
        /// 1-based line number in the new text.
        line: usize,
        /// The line's text before the cell, trimmed (what the cell is).
        context: String,
        /// The cell as it was.
        old: String,
        /// The cell as it is.
        new: String,
    },
    /// A line whose words changed, or that only one side has.
    Line {
        /// 1-based line number (in the new text when it has the line).
        line: usize,
        /// The line as it was, if the old text has it.
        old: Option<String>,
        /// The line as it is, if the new text has it.
        new: Option<String>,
    },
}

impl Change {
    /// `(new - old) / |old|` of a moved cell; `None` for a line change or
    /// a cell that was zero.
    pub fn relative(&self) -> Option<f64> {
        match self {
            Change::Cell { old, new, .. } => {
                let (old, new) = (old.parse::<f64>().ok()?, new.parse::<f64>().ok()?);
                (old != 0.0).then(|| (new - old) / old.abs())
            }
            Change::Line { .. } => None,
        }
    }
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::Cell {
                line,
                context,
                old,
                new,
            } => {
                write!(f, "{line}: [{context}] {old} -> {new}")?;
                match self.relative() {
                    Some(r) => write!(f, " ({:+.4} %)", r * 100.0),
                    None => write!(f, " (from zero)"),
                }
            }
            Change::Line { line, old, new } => {
                write!(f, "{line}: line")?;
                if let Some(old) = old {
                    write!(f, "\n  - {old}")?;
                }
                if let Some(new) = new {
                    write!(f, "\n  + {new}")?;
                }
                Ok(())
            }
        }
    }
}

/// A line cut into its words and its numbers: `words[i]` precedes
/// `numbers[i]`, and the last word follows the last number. Each number
/// comes with its byte offset in the line.
struct Cells<'a> {
    words: Vec<&'a str>,
    numbers: Vec<(usize, &'a str)>,
}

/// Split `line` at its numbers. A number starts at a digit (or a sign or
/// point right before one) that does not continue a word, so `Q1`, `x86`
/// and `rg-2` stay words, and runs over digits and one decimal point.
fn cells(line: &str) -> Cells<'_> {
    let b = line.as_bytes();
    let word_byte = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let (mut words, mut numbers) = (Vec::new(), Vec::new());
    let (mut word_start, mut i) = (0, 0);
    while i < b.len() {
        let continues_word =
            i > 0 && (word_byte(b[i - 1]) || (b[i - 1] == b'-' && i > 1 && word_byte(b[i - 2])));
        let lead = match b[i] {
            b'-' | b'+' | b'.' => 1,
            _ => 0,
        };
        let starts = !continues_word && b.get(i + lead).is_some_and(u8::is_ascii_digit);
        if !starts {
            i += 1;
            continue;
        }
        let mut end = i + lead;
        let mut seen_point = b[i] == b'.';
        while end < b.len()
            && (b[end].is_ascii_digit()
                || (b[end] == b'.'
                    && !seen_point
                    && b.get(end + 1).is_some_and(u8::is_ascii_digit)))
        {
            seen_point |= b[end] == b'.';
            end += 1;
        }
        words.push(&line[word_start..i]);
        numbers.push((i, &line[i..end]));
        word_start = end;
        i = end;
    }
    words.push(&line[word_start..]);
    Cells { words, numbers }
}

/// Every moved cell and changed line between `old` and `new`, the two
/// texts of one results file, in line order.
pub fn diff(old: &str, new: &str) -> Vec<Change> {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    let mut out = Vec::new();
    for i in 0..old.len().max(new.len()) {
        let line = i + 1;
        match (old.get(i), new.get(i)) {
            (Some(o), Some(n)) if o == n => {}
            (Some(o), Some(n)) => {
                let (co, cn) = (cells(o), cells(n));
                if co.words != cn.words {
                    out.push(Change::Line {
                        line,
                        old: Some(o.to_string()),
                        new: Some(n.to_string()),
                    });
                    continue;
                }
                for (&(_, a), &(at, b)) in co.numbers.iter().zip(&cn.numbers) {
                    if a != b {
                        out.push(Change::Cell {
                            line,
                            context: n[..at].split_whitespace().collect::<Vec<_>>().join(" "),
                            old: a.to_string(),
                            new: b.to_string(),
                        });
                    }
                }
            }
            (o, n) => out.push(Change::Line {
                line,
                old: o.map(|s| s.to_string()),
                new: n.map(|s| s.to_string()),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = "\
## Figure 5(c) — TPC-H Q1
config          sim time  vs-filter   data moved
none (raw)       4.266 s      0.63x    340.15 MB
filter           2.673 s      1.00x    190.28 MB
pd-all: -0.5 and 12 rows
";

    const NEW: &str = "\
## Figure 5(c) — TPC-H Q1
config          sim time  vs-filter   data moved
none (raw)       4.270 s      0.63x    340.16 MB
filter           2.673 s      1.00x    190.28 MB
pd-all: -0.4 and 12 rows
added line
";

    #[test]
    fn moved_cells_are_reported_with_their_relative_change() {
        let got = diff(OLD, NEW);
        let cell = |line, context: &str, old: &str, new: &str| Change::Cell {
            line,
            context: context.into(),
            old: old.into(),
            new: new.into(),
        };
        assert_eq!(
            got,
            vec![
                cell(3, "none (raw)", "4.266", "4.270"),
                cell(3, "none (raw) 4.270 s 0.63x", "340.15", "340.16"),
                cell(5, "pd-all:", "-0.5", "-0.4"),
                Change::Line {
                    line: 6,
                    old: None,
                    new: Some("added line".into())
                },
            ]
        );
        let r = got[0].relative().unwrap();
        assert!((r - 0.004 / 4.266).abs() < 1e-12, "{r}");
        assert_eq!(
            got[0].to_string(),
            "3: [none (raw)] 4.266 -> 4.270 (+0.0938 %)"
        );
        assert_eq!(got[2].to_string(), "5: [pd-all:] -0.5 -> -0.4 (+20.0000 %)");
        assert_eq!(got[3].relative(), None);
    }

    #[test]
    fn words_that_hold_digits_stay_words_and_changed_words_are_lines() {
        // `Q1`, `x86`, `->` and `a-1` hold no number to diff; a changed
        // word makes the whole line a change.
        let c = cells("Q1 5(c) x86 -> 12.5% .5 a-1 -3");
        let numbers: Vec<&str> = c.numbers.iter().map(|n| n.1).collect();
        assert_eq!(numbers, vec!["5", "12.5", ".5", "-3"]);
        assert_eq!(diff("a 1 b", "a 1 b"), vec![]);
        assert_eq!(
            diff("plan: A -> B", "plan: A -> C"),
            vec![Change::Line {
                line: 1,
                old: Some("plan: A -> B".into()),
                new: Some("plan: A -> C".into()),
            }]
        );
        assert_eq!(
            diff("0 B", "7 B")[0].to_string(),
            "1: [] 0 -> 7 (from zero)"
        );
    }
}

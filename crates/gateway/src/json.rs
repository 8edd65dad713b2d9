//! The gateway's one JSON writer: objects, arrays, escaped strings,
//! integers, booleans, shortest-round-trip floats. Output is
//! compact and commas are the writer's business, so a response body is
//! described once, in the order it is sent.

use std::fmt::{Display, Write};

/// An append-only JSON text.
#[derive(Debug, Default)]
pub(crate) struct Json {
    out: String,
    /// The innermost open container already holds a member, so the next
    /// one is preceded by a comma.
    comma: bool,
}

impl Json {
    /// The text of the object whose members `fill` writes — every
    /// response body is one.
    pub(crate) fn document(fill: impl FnOnce(&mut Json)) -> String {
        let mut json = Json::default();
        json.object(fill);
        json.out
    }

    /// `{ … }` with the members `fill` writes.
    pub(crate) fn object(&mut self, fill: impl FnOnce(&mut Json)) {
        self.nested('{', '}', fill);
    }

    /// `[ … ]` with the elements `fill` writes.
    pub(crate) fn array(&mut self, fill: impl FnOnce(&mut Json)) {
        self.nested('[', ']', fill);
    }

    fn nested(&mut self, open: char, close: char, fill: impl FnOnce(&mut Json)) {
        self.value(open);
        self.comma = false;
        fill(self);
        self.out.push(close);
        self.comma = true;
    }

    /// `"name":` — the value written next belongs to it.
    pub(crate) fn key(&mut self, name: &str) -> &mut Json {
        self.string(name);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string, with quotes, backslashes and control characters escaped.
    pub(crate) fn string(&mut self, s: &str) {
        self.value('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => self.out.extend(['\\', c]),
                c if (c as u32) < 0x20 => self.out += &format!("\\u{:04x}", c as u32),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// An integer, boolean or finite float — anything whose `Display` is
    /// already JSON (a float prints in its shortest round-trip form) —
    /// after the comma a second or later member needs.
    pub(crate) fn value(&mut self, v: impl Display) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        let text = Json::document(|j| {
            for s in ["plain", "a\"b\\c", "x\ny\u{1f}é"] {
                j.key(s).string(s);
            }
        });
        assert_eq!(
            text,
            r#"{"plain":"plain","a\"b\\c":"a\"b\\c","x\u000ay\u001fé":"x\u000ay\u001fé"}"#
        );
    }

    #[test]
    fn containers_nest_and_place_their_own_commas() {
        let text = Json::document(|j| {
            j.key("a").value(1u64);
            j.key("e\"").array(|_| {});
            j.key("list").array(|j| {
                j.value(true);
                j.value(0.1 + 0.2);
                j.object(|j| j.key("k").value(2u64));
                j.array(|j| j.string("s"));
            });
            j.key("z").object(|_| {});
        });
        assert_eq!(
            text,
            r#"{"a":1,"e\"":[],"list":[true,0.30000000000000004,{"k":2},["s"]],"z":{}}"#
        );
    }
}

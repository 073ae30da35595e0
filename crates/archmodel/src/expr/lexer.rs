//! Tokenizer for the constraint-expression language.

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// An identifier or keyword-free name.
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// Whether the number was written without a decimal point.
    Integer(i64),
    /// A string literal.
    Str(String),
    /// `true`
    True,
    /// `false`
    False,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `exists`
    Exists,
    /// `forall`
    Forall,
    /// `select`
    Select,
    /// `in`
    In,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `|`
    Pipe,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `->`
    Arrow,
}

/// A lexing error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `input` into a vector of tokens.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ':' => {
                tokens.push(Token::Colon);
                i += 1;
            }
            '|' => {
                tokens.push(Token::Pipe);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '>' {
                    tokens.push(Token::Arrow);
                    i += 2;
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::EqEq);
                    i += 2;
                } else {
                    return Err(LexError {
                        position: i,
                        message: "expected '==' (single '=' is not an operator)".into(),
                    });
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != '"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        position: i,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                let mut saw_dot = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.'
                        && !saw_dot
                        && j + 1 < bytes.len()
                        && (bytes[j + 1] as char).is_ascii_digit()
                    {
                        saw_dot = true;
                        j += 1;
                    } else if (d == 'e' || d == 'E')
                        && j + 1 < bytes.len()
                        && ((bytes[j + 1] as char).is_ascii_digit() || bytes[j + 1] as char == '-')
                    {
                        saw_dot = true;
                        j += 2;
                    } else {
                        break;
                    }
                }
                let text = &input[start..j];
                if saw_dot {
                    let value: f64 = text.parse().map_err(|_| LexError {
                        position: start,
                        message: format!("invalid number: {text}"),
                    })?;
                    tokens.push(Token::Number(value));
                } else {
                    let value: i64 = text.parse().map_err(|_| LexError {
                        position: start,
                        message: format!("invalid integer: {text}"),
                    })?;
                    tokens.push(Token::Integer(value));
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..j];
                let token = match word {
                    "true" => Token::True,
                    "false" => Token::False,
                    "and" => Token::And,
                    "or" => Token::Or,
                    "not" => Token::Not,
                    "exists" => Token::Exists,
                    "forall" => Token::Forall,
                    "select" => Token::Select,
                    "in" => Token::In,
                    _ => Token::Ident(word.to_string()),
                };
                tokens.push(token);
                i = j;
            }
            other => {
                return Err(LexError {
                    position: i,
                    message: format!("unexpected character: {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_paper_invariant() {
        let tokens = tokenize("averageLatency <= maxLatency").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("averageLatency".into()),
                Token::Le,
                Token::Ident("maxLatency".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_numbers_and_scientific_notation() {
        let tokens = tokenize("2 + 1.5 * 10e6").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Integer(2),
                Token::Plus,
                Token::Number(1.5),
                Token::Star,
                Token::Number(10e6),
            ]
        );
    }

    #[test]
    fn tokenizes_quantifier_syntax() {
        let tokens =
            tokenize("exists sgrp : ServerGroupT in components | sgrp.load > maxServerLoad")
                .unwrap();
        assert!(tokens.contains(&Token::Exists));
        assert!(tokens.contains(&Token::Colon));
        assert!(tokens.contains(&Token::In));
        assert!(tokens.contains(&Token::Pipe));
        assert!(tokens.contains(&Token::Dot));
    }

    #[test]
    fn comparison_operators() {
        let tokens = tokenize("< <= > >= == != -> !").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::EqEq,
                Token::Ne,
                Token::Arrow,
                Token::Bang,
            ]
        );
    }

    #[test]
    fn string_literals() {
        let tokens = tokenize("name == \"ServerGrp1\"").unwrap();
        assert_eq!(tokens[2], Token::Str("ServerGrp1".into()));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn rejects_single_equals() {
        assert!(tokenize("a = b").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(tokenize("a # b").is_err());
    }

    #[test]
    fn keywords_vs_identifiers() {
        let tokens = tokenize("andrew and exists_x exists").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("andrew".into()),
                Token::And,
                Token::Ident("exists_x".into()),
                Token::Exists,
            ]
        );
    }
}

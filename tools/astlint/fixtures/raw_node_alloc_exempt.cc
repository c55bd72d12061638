void f() { Node* n = new Node(); delete n; }
